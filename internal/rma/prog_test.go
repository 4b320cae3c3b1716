package rma_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// The step-program interpreter (prog.go), driven through the protocols
// that run on it.

func payload(lines int) []byte {
	b := make([]byte, lines*scc.CacheLine)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// bcastOn runs one barrier and one `lines`-line OC-Bcast from core 0 on
// a fresh 48-core chip, checks delivery, and returns the chip.
func bcastOn(t *testing.T, cfg core.Config, lines int) *rma.Chip {
	t.Helper()
	chip := rma.NewChipN(scc.DefaultConfig(), scc.NumCores)
	want := payload(lines)
	chip.Private(0).Write(0, want)
	chip.Run(func(c *rma.Core) {
		rcce.NewPort(c).Barrier()
		core.NewBroadcaster(c, cfg).Bcast(0, 0, lines)
	})
	got := make([]byte, len(want))
	for i := 0; i < chip.NCores; i++ {
		chip.Private(i).Read(got, 0, len(got))
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: core %d payload corrupted", cfg.K, i)
		}
	}
	return chip
}

// TestRunProgramsStayInChipArray: the paper's configuration never needs
// a per-core program buffer — every step of a k = 7 barrier + broadcast
// fits the core's window of the array NewChipN allocated once.
func TestRunProgramsStayInChipArray(t *testing.T) {
	chip := bcastOn(t, core.DefaultConfig(), 96)
	for i := 0; i < chip.NCores; i++ {
		if chip.RunProgSpilled(i) {
			t.Errorf("core %d's run program left the chip array", i)
		}
	}
}

// TestCollectiveStepsStayInChipArray: every two-sided collective runs
// one call per step, so its steps at up to 251 lines (one RCCE chunk)
// are at most a sendrecv's six ops, and the k = 7 one-sided lane begin
// resets its 16 flag lines in one step and barriers in the next — all
// inside each core's window of the array NewChipN allocated once.
func TestCollectiveStepsStayInChipArray(t *testing.T) {
	const n, lines = 48, rcce.PayloadLines
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	scratch := n * lines * scc.CacheLine
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		comm := collective.NewComm(port)
		comm.BcastBinomial(0, 0, lines)
		comm.BcastNaive(1, 0, lines)
		comm.BcastScatterAllgather(n-1, 0, lines)
		comm.BcastScatterAllgatherOneSided(0, 0, lines)
		comm.Reduce(n/2, 0, scratch, lines, collective.SumInt64)
		comm.AllReduce(0, scratch, lines, collective.MaxInt64)
		comm.AllReduceRabenseifner(0, scratch, lines, collective.SumInt64)
		comm.Gather(n-1, 0, lines)
		comm.Scatter(0, 0, lines)
		comm.AllGather(0, lines)
		x := occoll.New(c, port, core.DefaultConfig())
		x.AllReduce(0, lines, collective.SumInt64)
		x.Finish()
	})
	for i := 0; i < n; i++ {
		if chip.RunProgSpilled(i) {
			t.Errorf("core %d's run program left the chip array", i)
		}
	}
}

// TestEmitRefusesOutOfRangeOperands: an operand that does not fit its
// instruction field panics at emission instead of being truncated into
// another line, chunk size or address.
func TestEmitRefusesOutOfRangeOperands(t *testing.T) {
	for name, emit := range map[string]func(p *rma.Prog){
		"chunk of 256 lines":     func(p *rma.Prog) { p.PutMem(0, 0, 256) },
		"negative chunk":         func(p *rma.Prog) { p.GetMem(1, 0, 0, -1) },
		"line 65536":             func(p *rma.Prog) { p.SetFlag(1, 1<<16, 1) },
		"peer past int32":        func(p *rma.Prog) { p.GetMPB(1<<31, 0, 1) },
		"combine address 4 GiB":  func(p *rma.Prog) { p.CombinePriv(1<<32, 0, 1) },
		"combine scratch 4 GiB":  func(p *rma.Prog) { p.CombinePriv(0, 1<<32, 1) },
		"combine of 2^31 lines":  func(p *rma.Prog) { p.CombinePriv(0, 0, 1<<31) },
		"negative combine lines": func(p *rma.Prog) { p.CombinePriv(0, 0, -1<<40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: emitted without a panic", name)
				}
			}()
			emit(new(rma.Prog))
		}()
	}
}

// TestLongStepSpills: a step longer than the window — the k = 47 root
// polls 47 done flags — moves that core's buffer to the heap without
// touching its neighbours' windows, and still delivers.
func TestLongStepSpills(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.K = 47
	chip := bcastOn(t, cfg, 300)
	if !chip.RunProgSpilled(0) {
		t.Error("the k=47 root's 97-op step fit a 16-instruction window")
	}
	for i := 1; i < chip.NCores; i++ {
		if chip.RunProgSpilled(i) {
			t.Errorf("leaf %d's run program left the chip array", i)
		}
	}
}

// TestWarmedProtocolsAllocFree: on a warmed pooled chip a Reset+Run
// cycle of barrier, multi-chunk Send/Recv and multi-chunk broadcast —
// step emission, instruction dispatch, child frames — allocates nothing.
func TestWarmedProtocolsAllocFree(t *testing.T) {
	const n = 8
	chip := rma.AcquireChipN(scc.DefaultConfig(), n)
	defer rma.ReleaseChip(chip)
	// Protocol state outlives a run (its sequence numbers stay aligned
	// across cores), so the per-peer tables are made once.
	ports := make([]rcce.Port, n)
	bcs := make([]core.Broadcaster, n)
	inited := false
	body := func(c *rma.Core) {
		p, b, me := &ports[c.ID()], &bcs[c.ID()], c.ID()
		if !inited {
			p.Init(c)
			b.Init(c, core.DefaultConfig())
		}
		p.Barrier()
		if me%2 == 0 {
			p.Send(me+1, 0, 300)
		} else {
			p.Recv(me-1, 0, 300)
		}
		b.Bcast(0, 0, 300)
	}
	chip.Run(body)
	inited = true
	allocs := testing.AllocsPerRun(10, func() {
		if !chip.Reset() {
			t.Fatal("Reset refused")
		}
		chip.Run(body)
	})
	if allocs > 0 {
		t.Errorf("warmed barrier+send/recv+bcast Reset+Run allocates %.1f times per cycle, want 0", allocs)
	}
}

// sparse is a Stepper that emits a 1 µs compute on odd steps and nothing
// on even ones, for `steps` steps.
type sparse struct {
	steps int
	seen  []int
}

func (s *sparse) EmitStep(p *rma.Prog, step int) (more bool) {
	s.seen = append(s.seen, step)
	if step%2 == 1 {
		p.Compute(sim.Microsecond)
	}
	return step+1 < s.steps
}

// TestEmptyStepsAreSkipped: a step that emits nothing — a tree node with
// no part in a phase, which occoll's leaf streamDown relies on — costs
// nothing and does not end the program; nor does a program of nothing
// but empty steps hang or advance the clock.
func TestEmptyStepsAreSkipped(t *testing.T) {
	chip := rma.NewChipN(scc.DefaultConfig(), 1)
	chip.Run(func(c *rma.Core) {
		s := &sparse{steps: 5}
		c.Run(s)
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(s.seen, want) {
			t.Errorf("emitted steps %v, want %v", s.seen, want)
		}
		if c.Now() != 2*sim.Microsecond {
			t.Errorf("clock %d after two 1 µs computes", c.Now())
		}
		c.Run(&sparse{steps: 1})
		if c.Now() != 2*sim.Microsecond {
			t.Errorf("a program of one empty step moved the clock to %d", c.Now())
		}
	})
}

// prober issues a program the way a non-blocking protocol does: it
// probes a pending wait instead of parking on it, and stops — frame
// done, program still on the wait — while the flag has not arrived.
type prober struct {
	c    *rma.Core
	prog rma.Prog
}

func (f *prober) Step(*sim.Proc) sim.StepStatus {
	if f.prog.Done() {
		return sim.StepDone
	}
	if line, val, ok := f.prog.PendingWait(); ok {
		if !f.c.ProbeFlagGE(line, val) {
			return sim.StepDone
		}
		f.prog.Polled()
	}
	return f.c.CallNext(&f.prog)
}

// TestProbedWaitStopsAndResumes: a program stopped on a probed wait
// costs no virtual time and keeps its place; once the flag has arrived
// the wait becomes the one poll read a parked wait ends with, and the
// rest of the program — a combining get with the program's Fold — runs.
func TestProbedWaitStopsAndResumes(t *testing.T) {
	const flagLine, lines = 10, 2
	chip := rma.NewChipN(scc.DefaultConfig(), 2)
	chip.Private(0).Write(0, payload(lines))
	chip.Private(1).Write(0, payload(lines))
	chip.Run(func(c *rma.Core) {
		if c.ID() == 0 {
			c.PutMemToMPB(0, 0, 0, lines)
			c.Compute(5 * sim.Microsecond)
			c.SetFlag(1, flagLine, 1)
			return
		}
		f := &prober{c: c}
		f.prog.Grow(4)
		f.prog.Fold = func(dst, src []byte) {
			for i := range dst {
				dst[i] += src[i]
			}
		}
		f.prog.PutMem(0, 0, lines)
		f.prog.WaitGE(flagLine, 1)
		f.prog.Combine(0, 0, lines)
		f.prog.GetMem(1, 0, 0, lines)
		c.Exec(f)
		stopped := c.Now()
		if _, _, ok := f.prog.PendingWait(); !ok || f.prog.Done() {
			t.Fatal("the program did not stop on its wait")
		}
		c.Exec(f)
		if c.Now() != stopped {
			t.Errorf("a failed probe moved the clock from %d to %d", stopped, c.Now())
		}
		c.Compute(10 * sim.Microsecond)
		c.Exec(f)
		if !f.prog.Done() {
			t.Fatal("the program did not finish after the flag arrived")
		}
	})
	if ctr := chip.Counter[1]; ctr.FlagPolls != 2 || ctr.FlagWaits != 1 {
		t.Errorf("core 1 counted %d failed polls and %d successful waits, want 2 and 1", ctr.FlagPolls, ctr.FlagWaits)
	}
	want := payload(lines)
	for i := range want {
		want[i] *= 2
	}
	got := make([]byte, len(want))
	chip.Private(1).Read(got, 0, len(got))
	if !bytes.Equal(got, want) {
		t.Error("core 1 did not fold core 0's lines into its own")
	}
}
