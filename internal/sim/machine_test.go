package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"
)

// The engine offers two surfaces for writing a proc's work — a blocking
// body (Advance/BlockCond on the proc's goroutine) and an Exec'd Frame
// stepped by whoever holds the control token — and they must be
// indistinguishable: same traces, same clocks, same slow-path switch
// counts. These tests drive one randomized stress workload through both
// and compare every event, and pin the result to committed digests
// (testdata/stress_digests.json), recorded when the engine still had
// its classic two-hop scheduler and goroutine-only mode, with all four
// combinations agreeing.

// stressEv is one observation of the running process: who ran, at what
// virtual time, at which step of its body.
type stressEv struct {
	id   int
	now  Time
	step int
}

// stressCtx is the shared state of one stress run: the trace, the
// per-proc progress counters the blocking rendezvous reads, and the
// engine (frames signal through it).
type stressCtx struct {
	e     *Engine
	trace []stressEv
	vals  []uint64
	nproc int
	steps int
}

// stressStep performs one loop iteration's post-advance work (identical
// for the frame and the blocking body): record the event, bump the
// counter, signal watchers. It reports whether step s is a rendezvous
// step — wait for the next proc to pass our progress, which is always
// eventually satisfied — and, if so, which peer/threshold to wait for.
func (c *stressCtx) stressStep(p *Proc, s int) (peer int, want uint64, blockNow bool) {
	c.trace = append(c.trace, stressEv{id: p.ID(), now: p.now, step: s})
	c.vals[p.ID()]++
	c.e.Signal(WatchKey{Space: 0, Line: p.ID()}, p.now)
	if s%8 != 3 {
		return 0, 0, false
	}
	peer = (p.ID() + 1) % c.nproc
	want = c.vals[p.ID()] - 1
	if want > uint64(c.steps) {
		want = uint64(c.steps)
	}
	return peer, want, true
}

// stressCond is the reusable rendezvous condition both forms block on.
type stressCond struct {
	c    *stressCtx
	peer int
	want uint64
}

func (sc *stressCond) Holds() bool { return sc.c.vals[sc.peer] >= sc.want }

// stressFrame is the state-machine transcription of runStress's
// blocking body: pc 0 advances, pc 1 records/signals and optionally
// blocks, matching the body resume point for resume point.
type stressFrame struct {
	c    *stressCtx
	rng  *rand.Rand
	s    int
	pc   uint8
	cond stressCond
}

func (f *stressFrame) Step(p *Proc) StepStatus {
	for {
		switch f.pc {
		case 0:
			if f.s == f.c.steps {
				return StepDone
			}
			p.MachineAdvance(Duration(f.rng.Intn(5)))
			f.pc = 1
			return StepYield
		default:
			peer, want, block := f.c.stressStep(p, f.s)
			f.s++
			f.pc = 0
			if block {
				f.cond = stressCond{c: f.c, peer: peer, want: want}
				if f.cond.Holds() {
					// BlockCond on a satisfied condition still yields
					// (subject to the keepRunning fast path).
					return StepYield
				}
				p.MachineBlock(WatchKey{Space: 0, Line: peer}, &f.cond)
				return StepBlock
			}
		}
	}
}

// runStress executes a randomized run-queue workload — procs advancing
// by small random durations (often zero, so the (clock, id) tiebreak is
// exercised constantly) and blocking on each other through watch keys —
// and returns the full serialized execution trace plus the engine's
// slow-path switch count. frame runs each proc's work as an Exec'd
// stressFrame; otherwise the blocking body runs (Advance/BlockCond).
func runStress(seed int64, nproc, steps int, frame bool) ([]stressEv, int64) {
	e := NewEngine(nproc)
	c := &stressCtx{e: e, vals: make([]uint64, nproc), nproc: nproc, steps: steps}
	frames := make([]stressFrame, nproc)
	conds := make([]stressCond, nproc)
	e.Run(func(p *Proc) {
		rng := rand.New(rand.NewSource(seed + int64(p.ID())*7919))
		if frame {
			frames[p.ID()] = stressFrame{c: c, rng: rng}
			p.Exec(&frames[p.ID()])
			return
		}
		for s := 0; s < steps; s++ {
			p.Advance(Duration(rng.Intn(5)))
			peer, want, block := c.stressStep(p, s)
			if block {
				conds[p.ID()] = stressCond{c: c, peer: peer, want: want}
				p.BlockCond(WatchKey{Space: 0, Line: peer}, &conds[p.ID()])
			}
		}
	})
	return c.trace, e.Switches()
}

// TestMachineEquivalenceMatrix asserts the blocking body and the Exec'd
// frame produce identical traces (same procs, same clocks, same order)
// and slow-path switch counts on randomized workloads.
func TestMachineEquivalenceMatrix(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		body, bodySw := runStress(seed, 9, 120, false)
		frame, frameSw := runStress(seed, 9, 120, true)
		if len(frame) != len(body) {
			t.Fatalf("seed %d: trace length %d (body) vs %d (frame)", seed, len(body), len(frame))
		}
		for i := range body {
			if frame[i] != body[i] {
				t.Fatalf("seed %d: trace diverges at event %d: %+v (body) vs %+v (frame)",
					seed, i, body[i], frame[i])
			}
		}
		if frameSw != bodySw {
			t.Errorf("seed %d: switch count %d (body) vs %d (frame)", seed, bodySw, frameSw)
		}
	}
}

// TestResumesCountGoroutineHandoffs: two procs that each advance three
// times in lockstep switch six times whichever way their work is
// written, but a blocking body takes the control token on its goroutine
// at every switch (8 resumes: the two starts, six switches, the handoff
// at the first finish), while one Exec'd section per proc is stepped
// inline by whoever holds the token, so each goroutine is resumed only to
// start and to leave its section (4).
func TestResumesCountGoroutineHandoffs(t *testing.T) {
	for _, tc := range []struct {
		frame   bool
		resumes int64
	}{{false, 8}, {true, 4}} {
		e := NewEngine(2)
		frames := make([]advanceFrame, 2)
		e.Run(func(p *Proc) {
			if tc.frame {
				p.Exec(&frames[p.ID()])
				return
			}
			for i := 0; i < 3; i++ {
				p.Advance(1)
			}
		})
		if e.Switches() != 6 || e.Resumes() != tc.resumes {
			t.Errorf("frame=%v: %d switches and %d resumes, want 6 and %d", tc.frame, e.Switches(), e.Resumes(), tc.resumes)
		}
	}
}

// advanceFrame advances its proc by 1 three times, yielding each time.
type advanceFrame struct{ n int }

func (f *advanceFrame) Step(p *Proc) StepStatus {
	if f.n == 3 {
		return StepDone
	}
	f.n++
	p.MachineAdvance(1)
	return StepYield
}

// TestHandoffDeterminism asserts the handoff scheduler is reproducible
// run-to-run for the same seed.
func TestHandoffDeterminism(t *testing.T) {
	a, _ := runStress(42, 7, 100, false)
	b, _ := runStress(42, 7, 100, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// stressDigest is one row of testdata/stress_digests.json: one seed of
// the 9-proc, 120-step stress reduced to its trace length, the FNV-1a
// hash of the (id, now, step) stream and the slow-path switch count.
type stressDigest struct {
	Seed     int64  `json:"seed"`
	Events   int    `json:"events"`
	FNV64    string `json:"fnv64"`
	Switches int64  `json:"switches"`
}

func digestStress(seed int64, trace []stressEv, switches int64) stressDigest {
	h := fnv.New64a()
	var buf [24]byte
	for _, ev := range trace {
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.id))
		binary.LittleEndian.PutUint64(buf[8:], uint64(ev.now))
		binary.LittleEndian.PutUint64(buf[16:], uint64(ev.step))
		h.Write(buf[:])
	}
	return stressDigest{Seed: seed, Events: len(trace), FNV64: fmt.Sprintf("%016x", h.Sum64()), Switches: switches}
}

// loadStressDigests decodes the committed digest file, refusing unknown
// fields.
func loadStressDigests(t *testing.T) []stressDigest {
	t.Helper()
	f, err := os.Open("testdata/stress_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []stressDigest
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStressDigestSchema pins the committed file's shape — exactly the
// six seeds 1..6 in order, every field filled — so a truncated or
// hand-edited file cannot make TestStressDigests vacuous.
func TestStressDigestSchema(t *testing.T) {
	rows := loadStressDigests(t)
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for i, r := range rows {
		if r.Seed != int64(i+1) || r.Events <= 0 || len(r.FNV64) != 16 || r.Switches <= 0 {
			t.Errorf("row %d: %+v, want seed %d with events, a 16-digit fnv64 and switches all set", i, r, i+1)
		}
	}
}

// TestStressDigests replays every committed seed as a blocking body and
// requires the exact recorded digest (TestMachineEquivalenceMatrix ties
// the frame form to the same traces). On a mismatch it logs the table
// this engine produces, as JSON, for inspection — a differing digest
// means the schedule changed, which is a bug unless proven otherwise.
func TestStressDigests(t *testing.T) {
	var got []stressDigest
	for _, want := range loadStressDigests(t) {
		trace, sw := runStress(want.Seed, 9, 120, false)
		d := digestStress(want.Seed, trace, sw)
		if d != want {
			t.Errorf("seed %d: got %+v, committed %+v", want.Seed, d, want)
		}
		got = append(got, d)
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests this engine produces:\n%s", out)
	}
}

// countFrame advances n times by fixed durations, bumping a counter.
type countFrame struct {
	n, s  int
	d     Duration
	count *int
}

func (f *countFrame) Step(p *Proc) StepStatus {
	if f.s == f.n {
		return StepDone
	}
	f.s++
	*f.count++
	p.MachineAdvance(f.d)
	return StepYield
}

// callerFrame Calls a child countFrame and then runs one more advance
// of its own, exercising the frame stack push/pop.
type callerFrame struct {
	pc    uint8
	child countFrame
	count *int
}

func (f *callerFrame) Step(p *Proc) StepStatus {
	switch f.pc {
	case 0:
		f.pc = 1
		f.child = countFrame{n: 3, d: 2, count: f.count}
		p.Call(&f.child)
		return StepCall
	default:
		*f.count += 100
		return StepDone
	}
}

// TestMachineCall pins nested frames: the parent resumes only after the
// child completes, and the clock reflects both frames' advances.
func TestMachineCall(t *testing.T) {
	e := NewEngine(2)
	counts := make([]int, 2)
	frames := make([]callerFrame, 2)
	var finals [2]Time
	e.Run(func(p *Proc) {
		frames[p.ID()] = callerFrame{count: &counts[p.ID()]}
		p.Exec(&frames[p.ID()])
		finals[p.ID()] = p.Now()
	})
	for i := 0; i < 2; i++ {
		if counts[i] != 103 {
			t.Errorf("proc %d count %d, want 103 (3 child steps + parent tail)", i, counts[i])
		}
		if finals[i] != 6 {
			t.Errorf("proc %d final clock %v, want 6", i, finals[i])
		}
	}
}

// panicFrame panics at step s of n advances.
type panicFrame struct {
	n, s, at int
}

func (f *panicFrame) Step(p *Proc) StepStatus {
	if f.s == f.at {
		panic("frame boom")
	}
	if f.s == f.n {
		return StepDone
	}
	f.s++
	p.MachineAdvance(1)
	return StepYield
}

// TestMachinePanic asserts a panicking frame surfaces through Run,
// whether the panic fires on the proc's own goroutine (first step,
// inside Exec) or on a foreign token holder's (a later step, reached
// via the drain loop).
func TestMachinePanic(t *testing.T) {
	for _, at := range []int{0, 3} {
		func() {
			defer func() {
				if r := recover(); r != "frame boom" {
					t.Errorf("at=%d: panic = %v, want frame boom", at, r)
				}
			}()
			e := NewEngine(3)
			frames := make([]panicFrame, 3)
			e.Run(func(p *Proc) {
				// Proc 1 panics; the others advance long enough that
				// a foreign goroutine is holding the token when the
				// late panic fires.
				at := at
				if p.ID() != 1 {
					at = -1
				}
				frames[p.ID()] = panicFrame{n: 6, at: at}
				p.Exec(&frames[p.ID()])
			})
		}()
	}
}

// foreverFrame blocks on a condition that never holds.
type foreverFrame struct{ blocked bool }

type neverCond struct{}

func (neverCond) Holds() bool { return false }

func (f *foreverFrame) Step(p *Proc) StepStatus {
	if f.blocked {
		panic("sim: woken from a never-true condition")
	}
	f.blocked = true
	p.MachineBlock(WatchKey{Space: 1, Line: 1}, neverCond{})
	return StepBlock
}

// TestMachineDeadlock asserts a frame blocking forever produces the
// standard deadlock report.
func TestMachineDeadlock(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("machine deadlock not detected")
		}
	}()
	e := NewEngine(2)
	var frames [2]foreverFrame
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Exec(&frames[0])
		}
	})
}

// TestMachineExecAllocFree pins the inline hot path: a warmed
// persistent engine running Exec'd frames allocates nothing per
// Reset+Run cycle — the frame stack, run queue and watcher buckets all
// reuse their backing arrays.
func TestMachineExecAllocFree(t *testing.T) {
	e := NewEngine(4)
	e.SetPersistent(true)
	defer e.Shutdown()
	count := 0
	frames := make([]countFrame, 4)
	body := func(p *Proc) {
		frames[p.ID()] = countFrame{n: 50, d: Duration(1 + p.ID()%3), count: &count}
		p.Exec(&frames[p.ID()])
	}
	e.Run(body) // warm: spawn goroutines, grow heap and frame stacks
	allocs := testing.AllocsPerRun(20, func() {
		if !e.Reset() {
			t.Fatal("Reset refused")
		}
		e.Run(body)
	})
	if allocs > 0 {
		t.Errorf("Reset+Run of warmed inline machines allocates %.1f times per cycle, want 0", allocs)
	}
}
