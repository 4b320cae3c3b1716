package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/scc"
	"repro/internal/sim"
)

func newTestMPB() (*sim.Engine, *MPB) {
	e := sim.NewEngine(1)
	m := NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
	return e, m
}

func lineOf(b byte) []byte {
	l := make([]byte, scc.CacheLine)
	for i := range l {
		l[i] = b
	}
	return l
}

func TestMPBWriteReadVisibility(t *testing.T) {
	_, m := newTestMPB()
	m.WriteLine(3, lineOf(0xAA), 100*sim.Nanosecond)

	// Before the effective time the line reads as zero.
	if got := m.ReadLine(3, 50*sim.Nanosecond); !bytes.Equal(got, lineOf(0)) {
		t.Fatalf("early read saw the write: %x", got[:4])
	}
	// At/after the effective time the line is visible.
	if got := m.ReadLine(3, 100*sim.Nanosecond); !bytes.Equal(got, lineOf(0xAA)) {
		t.Fatalf("read at eff time = %x, want AA..", got[:4])
	}
}

func TestMPBMultiplePendingWritesOrdered(t *testing.T) {
	_, m := newTestMPB()
	m.WriteLine(0, lineOf(1), 10*sim.Nanosecond)
	m.WriteLine(0, lineOf(2), 20*sim.Nanosecond)
	m.WriteLine(0, lineOf(3), 30*sim.Nanosecond)
	if got := m.ReadLine(0, 25*sim.Nanosecond)[0]; got != 2 {
		t.Fatalf("read at t=25 = %d, want 2", got)
	}
	if got := m.ReadLine(0, 35*sim.Nanosecond)[0]; got != 3 {
		t.Fatalf("read at t=35 = %d, want 3", got)
	}
}

func TestMPBPeekU64(t *testing.T) {
	_, m := newTestMPB()
	line := make([]byte, scc.CacheLine)
	line[0] = 0x34
	line[1] = 0x12
	m.WriteLine(5, line, 0)
	if got := m.PeekU64(5, 0); got != 0x1234 {
		t.Fatalf("PeekU64 = %#x, want 0x1234", got)
	}
}

func TestMPBLineBounds(t *testing.T) {
	_, m := newTestMPB()
	for _, bad := range []int{-1, scc.MPBLinesPerCore} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line %d did not panic", bad)
				}
			}()
			m.ReadLine(bad, 0)
		}()
	}
	if m.Lines() != scc.MPBLinesPerCore || m.Owner() != 0 {
		t.Fatal("Lines/Owner broken")
	}
}

// TestWaitU64WakesAtEffectiveTime exercises the flag-wait primitive:
// a waiter must resume exactly at the satisfying write's effective time,
// not at the writer's completion time or the waiter's block time.
func TestWaitU64WakesAtEffectiveTime(t *testing.T) {
	e := sim.NewEngine(2)
	m := NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
	var wokeAt sim.Time
	e.Run(func(p *sim.Proc) {
		switch p.ID() {
		case 0:
			m.WaitU64GE(p, 9, 7)
			wokeAt = p.Now()
		case 1:
			p.Advance(2 * sim.Microsecond)
			// Write seq=7 landing at t=3µs.
			line := make([]byte, scc.CacheLine)
			line[0] = 7
			m.WriteLine(9, line, 3*sim.Microsecond)
			p.Advance(5 * sim.Microsecond)
		}
	})
	if wokeAt != 3*sim.Microsecond {
		t.Fatalf("waiter woke at %v, want 3µs", wokeAt)
	}
}

// TestWaitU64AlreadySatisfiedButPending: a wait issued before a pending
// write's effective time must still wake at that effective time.
func TestWaitU64AlreadySatisfiedButPending(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
	line := make([]byte, scc.CacheLine)
	line[0] = 1
	m.WriteLine(0, line, 10*sim.Microsecond) // pending, lands at 10µs
	var wokeAt sim.Time
	e.Run(func(p *sim.Proc) {
		m.WaitU64GE(p, 0, 1)
		wokeAt = p.Now()
	})
	if wokeAt != 10*sim.Microsecond {
		t.Fatalf("waiter woke at %v, want 10µs", wokeAt)
	}
}

func TestWaitU64SkipsNonSatisfyingWrites(t *testing.T) {
	e := sim.NewEngine(2)
	m := NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
	var wokeAt sim.Time
	e.Run(func(p *sim.Proc) {
		switch p.ID() {
		case 0:
			m.WaitU64GE(p, 0, 3)
			wokeAt = p.Now()
		case 1:
			for seq := byte(1); seq <= 3; seq++ {
				line := make([]byte, scc.CacheLine)
				line[0] = seq
				m.WriteLine(0, line, sim.Time(seq)*sim.Microsecond)
				p.Advance(sim.Microsecond)
			}
		}
	})
	if wokeAt != 3*sim.Microsecond {
		t.Fatalf("waiter woke at %v, want 3µs (the seq>=3 write)", wokeAt)
	}
}

func TestPrivateReadWrite(t *testing.T) {
	p := NewPrivate(4)
	if p.Owner() != 4 {
		t.Fatal("owner")
	}
	// Unwritten memory reads as zero.
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	p.Read(buf, 1024, 64)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x, want 0", i, b)
		}
	}
	// Round trip across a page boundary.
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := PageBytes - 1500
	p.Write(addr, data)
	got := make([]byte, len(data))
	p.Read(got, addr, len(got))
	if !bytes.Equal(got, data) {
		t.Fatal("page-boundary round trip failed")
	}
}

func TestPrivateRoundTripProperty(t *testing.T) {
	f := func(addr16 uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		p := NewPrivate(0)
		addr := int(addr16)
		p.Write(addr, data)
		got := make([]byte, len(data))
		p.Read(got, addr, len(got))
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newCache returns a cache model drawing on a slab of its own.
func newCache(enabled bool) *Cache {
	c := new(Cache)
	c.Init(enabled, NewSlab(1, 1))
	return c
}

func TestCacheModel(t *testing.T) {
	c := newCache(true)
	if c.Hit(1000) {
		t.Fatal("cold cache hit")
	}
	if !c.Hit(1000) {
		t.Fatal("second access missed")
	}
	// Same line, different byte offset: hit.
	if !c.Hit(1001) {
		t.Fatal("same-line access missed")
	}
	// TouchRange populates.
	c.TouchRange(64*scc.CacheLine, 1)
	if !c.Hit(64 * scc.CacheLine) {
		t.Fatal("touched line missed")
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after touches")
	}
	c.Flush()
	if c.Len() != 0 || c.Hit(1000) {
		t.Fatal("flush did not empty the cache")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(false)
	c.TouchRange(0, 1)
	if c.Hit(0) || c.Hit(0) {
		t.Fatal("disabled cache must always miss")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored lines")
	}
}

// TestWriteLinesExtentVisibility: a bulk extent's lines become visible at
// eff0 + i·stride, one line at a time.
func TestWriteLinesExtentVisibility(t *testing.T) {
	_, m := newTestMPB()
	src := make([]byte, 3*scc.CacheLine)
	for i := 0; i < 3; i++ {
		copy(src[i*scc.CacheLine:], lineOf(byte(0x10+i)))
	}
	const eff0, stride = 100 * sim.Nanosecond, 40 * sim.Nanosecond
	m.WriteLines(4, src, 3, eff0, stride)

	for i := 0; i < 3; i++ {
		eff := eff0 + sim.Duration(i)*stride
		if got := m.ReadLine(4+i, eff-1); !bytes.Equal(got, lineOf(0)) {
			t.Fatalf("line %d visible before its eff time", 4+i)
		}
		if got := m.ReadLine(4+i, eff); !bytes.Equal(got, lineOf(byte(0x10+i))) {
			t.Fatalf("line %d at eff = %x, want %x..", 4+i, got[:2], 0x10+i)
		}
	}
}

// TestWriteLinesThenOverwrite: a later single-line write layered over an
// extent settles in issue order, exactly like the per-line queue it
// replaced.
func TestWriteLinesThenOverwrite(t *testing.T) {
	_, m := newTestMPB()
	src := append(lineOf(1), lineOf(2)...)
	m.WriteLines(0, src, 2, 10*sim.Nanosecond, 5*sim.Nanosecond)
	m.WriteLine(1, lineOf(9), 20*sim.Nanosecond)

	if got := m.ReadLine(1, 16*sim.Nanosecond); !bytes.Equal(got, lineOf(2)) {
		t.Fatalf("line 1 at 16ns = %x, want extent value 02", got[:2])
	}
	if got := m.ReadLine(1, 20*sim.Nanosecond); !bytes.Equal(got, lineOf(9)) {
		t.Fatalf("line 1 at 20ns = %x, want overwrite 09", got[:2])
	}
	if got := m.ReadLine(0, 20*sim.Nanosecond); !bytes.Equal(got, lineOf(1)) {
		t.Fatalf("line 0 at 20ns = %x, want 01", got[:2])
	}
}

// TestReadLinesIntoStrided: the bulk read observes each line at its own
// per-line time t0 + i·stride.
func TestReadLinesIntoStrided(t *testing.T) {
	_, m := newTestMPB()
	src := append(lineOf(7), lineOf(8)...)
	// Line 0 visible at 100ns, line 1 at 200ns.
	m.WriteLines(0, src, 2, 100*sim.Nanosecond, 100*sim.Nanosecond)

	// Read line 0 at 150ns, line 1 at 150+30=180ns: line 1 still zero.
	dst := make([]byte, 2*scc.CacheLine)
	m.ReadLinesInto(dst, 0, 2, 150*sim.Nanosecond, 30*sim.Nanosecond)
	if !bytes.Equal(dst[:scc.CacheLine], lineOf(7)) {
		t.Fatalf("line 0 = %x, want 07", dst[:2])
	}
	if !bytes.Equal(dst[scc.CacheLine:], lineOf(0)) {
		t.Fatalf("line 1 = %x, want 00 (not yet visible at 180ns)", dst[scc.CacheLine:scc.CacheLine+2])
	}
	// Re-read with a stride that crosses the visibility time.
	m.ReadLinesInto(dst, 0, 2, 150*sim.Nanosecond, 100*sim.Nanosecond)
	if !bytes.Equal(dst[scc.CacheLine:], lineOf(8)) {
		t.Fatalf("line 1 = %x, want 08 (visible at 250ns)", dst[scc.CacheLine:scc.CacheLine+2])
	}
}

// TestExtentRecycling: settled extents are recycled, so a steady-state
// write/read loop stops allocating pending records.
func TestExtentRecycling(t *testing.T) {
	_, m := newTestMPB()
	src := append(lineOf(3), lineOf(4)...)
	allocs := testing.AllocsPerRun(100, func() {
		m.WriteLines(0, src, 2, 0, 0)
		var dst [2 * scc.CacheLine]byte
		m.ReadLinesInto(dst[:], 0, 2, 1<<40, 0)
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state write/read allocates %.1f objects per op, want 0", allocs)
	}
}

// TestMPBSweepPending covers the pending-extent sweep: writes to lines
// that are never read again (a collective's final flag writes) must not
// accumulate forever, and the sweep must preserve per-line issue order —
// a write behind a still-future write on the same line may not fold
// ahead of it, even when its own effective time is past the horizon.
func TestMPBSweepPending(t *testing.T) {
	_, m := newTestMPB()

	// Line 7 keeps a write queue with a far-future entry in the middle:
	// 0x11 (foldable), 0x22 (future), 0x33 (foldable time, but issued
	// after the future write, so it must stay queued behind it).
	m.WriteLines(7, lineOf(0x11), 1, 100*sim.Nanosecond, 0)
	m.WriteLines(7, lineOf(0x22), 1, sim.Micros(1000), 0)
	m.WriteLines(7, lineOf(0x33), 1, 200*sim.Nanosecond, 0)

	// A read elsewhere advances the fold horizon to 1 µs.
	m.ReadLine(0, sim.Micros(1))

	// Flag-style writes, never read back, enough to cross the sweep
	// threshold several times over.
	for i := 0; i < 4*sweepMinPending; i++ {
		eff := (50 + sim.Time(i)) * sim.Nanosecond
		m.WriteLines(10+i%40, lineOf(byte(i)), 1, eff, 0)
	}
	if n := m.unfolded(); n >= sweepMinPending {
		t.Fatalf("unfolded writes not swept: %d left (threshold %d)", n, sweepMinPending)
	}

	// Issue order on line 7 survived the sweeps: the final visible value
	// is the last-issued write, not the future-timestamped one.
	if got := m.ReadLine(7, sim.Micros(2000)); !bytes.Equal(got, lineOf(0x33)) {
		t.Fatalf("line 7 reads %x, want 33.. (sweep broke per-line issue order)", got[:4])
	}
}

// TestPeekStopsAtFirstFutureWrite: a write issued behind a still-future
// write to the same line is not visible before that one, to any reader —
// the side-effect-free peeks of the flag waits follow settle's rule. They
// used to take the last write with eff ≤ t even behind a future one, so a
// wait for ≥ 3 below reported satisfied at 300 while PeekU64 read 1. The
// second round is the same on a line whose writes are in the pending list.
func TestPeekStopsAtFirstFutureWrite(t *testing.T) {
	one, three := u64Of(1), u64Of(3)
	_, m := newTestMPB()
	m.WriteLines(20, make([]byte, 2*scc.CacheLine), 2, 0, 0) // line 21 is list-mode
	for _, line := range []int{7, 21} {
		m.WriteLines(line, lineOf(1), 1, 100, 0)
		m.WriteLines(line, lineOf(2), 1, 1000, 0)
		m.WriteLines(line, lineOf(3), 1, 200, 0)
		if te, ok := m.WaitSatisfiedAt(line, 300, three); !ok || te != 1000 {
			t.Errorf("line %d: wait for ≥ 3 at 300 = (%d, %v), want satisfied at 1000", line, te, ok)
		}
		if probe, peek := m.ProbeU64(line, 300), m.PeekU64(line, 300); probe != one || peek != one {
			t.Errorf("line %d at 300: ProbeU64 %#x, PeekU64 %#x, want the first write from both", line, probe, peek)
		}
		if got := m.PeekU64(line, 1000); got != three {
			t.Errorf("line %d at 1000 reads %#x, want the third write", line, got)
		}
	}
}

// listMPB is the pending-write index the per-line queues replaced, kept
// as the oracle: every unfolded write, single-line or not, is an extent
// in one list that every read scans with covers(). It is the parent's
// code less the recycling, with the one change production made too —
// peekU64At stops at the first future write, as settle always did.
type listMPB struct {
	data      []byte
	pending   []*pendingExtent
	pendCnt   []uint32
	settledAt sim.Time
	sweepAt   int
	blocked   []uint64
}

func newListMPB(lines int) *listMPB {
	return &listMPB{
		data:    make([]byte, lines*scc.CacheLine),
		pendCnt: make([]uint32, lines),
		blocked: make([]uint64, (lines+63)/64),
	}
}

func (m *listMPB) Reset() { *m = *newListMPB(len(m.pendCnt)) }

func (m *listMPB) fold(x *pendingExtent, line int) {
	copy(m.data[line*scc.CacheLine:], x.lineData(line))
	x.markApplied(line)
	m.pendCnt[line]--
}

func (m *listMPB) compact() {
	kept := m.pending[:0]
	for _, x := range m.pending {
		if x.nApplied != x.n {
			kept = append(kept, x)
		}
	}
	m.pending = kept
}

func (m *listMPB) settle(line int, t sim.Time) {
	m.settledAt = max(m.settledAt, t)
	left := m.pendCnt[line]
	for _, x := range m.pending {
		if left == 0 {
			break
		}
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if x.effAt(line) > t {
			break
		}
		m.fold(x, line)
		left--
	}
	m.compact()
}

func (m *listMPB) sweepPending() {
	clear(m.blocked)
	for _, x := range m.pending {
		for line := int(x.line0); line < int(x.line0+x.n); line++ {
			if m.blocked[line/64]&(1<<(line%64)) != 0 || x.isApplied(line) {
				continue
			}
			if x.effAt(line) > m.settledAt {
				m.blocked[line/64] |= 1 << (line % 64)
				continue
			}
			m.fold(x, line)
		}
	}
	m.compact()
	m.sweepAt = max(2*len(m.pending), sweepMinPending)
}

func (m *listMPB) WriteLines(line0 int, src []byte, n int, eff0 sim.Time, stride sim.Duration) {
	x := &pendingExtent{line0: int32(line0), n: int32(n), eff0: eff0, stride: stride}
	x.data = append([]byte(nil), src[:n*scc.CacheLine]...)
	x.applied = x.appliedArr[:1]
	m.pending = append(m.pending, x)
	for i := line0; i < line0+n; i++ {
		m.pendCnt[i]++
	}
	if len(m.pending) >= m.sweepAt && len(m.pending) >= sweepMinPending {
		m.sweepPending()
	}
}

// ReadLinesInto settles line by line, which the parent's settleRange was
// defined to equal.
func (m *listMPB) ReadLinesInto(dst []byte, line0, n int, t0 sim.Time, stride sim.Duration) {
	m.settledAt = max(m.settledAt, t0+sim.Duration(n-1)*stride)
	for i := 0; i < n; i++ {
		m.settle(line0+i, t0+sim.Duration(i)*stride)
	}
	copy(dst[:n*scc.CacheLine], m.data[line0*scc.CacheLine:])
}

func (m *listMPB) PeekU64(line int, t sim.Time) uint64 {
	m.settle(line, t)
	return binary.LittleEndian.Uint64(m.data[line*scc.CacheLine:])
}

func (m *listMPB) ProbeU64(line int, t sim.Time) uint64 {
	v := binary.LittleEndian.Uint64(m.data[line*scc.CacheLine:])
	for _, x := range m.pending {
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if x.effAt(line) > t {
			break
		}
		v = binary.LittleEndian.Uint64(x.lineData(line))
	}
	return v
}

func (m *listMPB) WaitSatisfiedAt(line int, now sim.Time, val uint64) (sim.Time, bool) {
	if scc.FlagHolds(m.ProbeU64(line, now), val) {
		return now, true
	}
	for _, x := range m.pending {
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if eff := x.effAt(line); eff > now && scc.FlagHolds(m.ProbeU64(line, eff), val) {
			return eff, true
		}
	}
	return 0, false
}

// TestPendingIndexMatchesList drives an MPB and the list-only oracle with
// the same seeded streams over a line universe small enough that lines
// collide: flag writes and strided extents with effective times in the
// past, the near and far future and out of issue order, every kind of
// read, and a Reset mid-stream. Every byte, value and time returned must
// be equal, and the number of unfolded writes after every step — which
// pins the sweeps to the same moments. The streams reach what no
// benchmark workload does, thousands of times each: queued writes moved
// to the list by an extent over their line, and single-line writes issued
// to a line an extent still covers.
func TestPendingIndexMatchesList(t *testing.T) {
	seeds, steps := int64(40), 3000
	if testing.Short() {
		seeds = 8
	}
	var total PendingStats
	listSingles := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lines := 6 + rng.Intn(31)
		m := NewMPB(sim.NewEngine(1), 0, lines, sim.Micros(0.0065))
		ref := newListMPB(lines)
		var now sim.Time
		src := make([]byte, 13*scc.CacheLine)
		got, want := make([]byte, len(src)), make([]byte, len(src))
		eff := func(n int) sim.Time {
			switch r := rng.Intn(100); {
			case r < 25:
				return now - sim.Time(rng.Intn(500)) // already visible
			case r < 93 || n > 1 && r < 99:
				return now + sim.Time(rng.Intn(2000)) // soon, out of issue order
			default:
				return now + 1<<40 + sim.Time(rng.Intn(1000)) // not within this stream
			}
		}
		for step := 0; step < steps; step++ {
			where := fmt.Sprintf("seed %d step %d (t=%d)", seed, step, now)
			now += sim.Time(rng.Intn(300))
			line := rng.Intn(lines)
			switch r := rng.Intn(100); {
			case step == steps/2:
				total.Add(m.Stats)
				m.Reset()
				ref.Reset()
				now = 0
			case r < 46:
				n, stride := 1, sim.Duration(0)
				if r >= 40 {
					n, stride = min(2+rng.Intn(12), lines-line), sim.Duration(rng.Intn(3)*rng.Intn(40))
				}
				for i := 0; i < n; i++ {
					// Small leading values, so that waits hit; the rest
					// of the line tells the writes apart.
					binary.LittleEndian.PutUint64(src[i*scc.CacheLine:], uint64(rng.Intn(8)))
					binary.LittleEndian.PutUint64(src[i*scc.CacheLine+8:], uint64(step*16+i))
				}
				if w := m.pendCnt[line]; n == 1 && w != 0 && w&queueTag == 0 {
					listSingles++
				}
				e := eff(n)
				m.WriteLines(line, src, n, e, stride)
				ref.WriteLines(line, src, n, e, stride)
			case r < 60:
				if g, w := m.PeekU64(line, now), ref.PeekU64(line, now); g != w {
					t.Fatalf("%s: PeekU64(%d) = %#x, oracle %#x", where, line, g, w)
				}
			case r < 68:
				at := now + sim.Time(rng.Intn(3000))
				if g, w := m.ProbeU64(line, at), ref.ProbeU64(line, at); g != w {
					t.Fatalf("%s: ProbeU64(%d, %d) = %#x, oracle %#x", where, line, at, g, w)
				}
			case r < 82:
				// Half the waits carry an owner tag no write matches.
				tag := uint64(rng.Intn(2)) << 32
				val := tag | uint64(rng.Intn(9))
				gt, gok := m.WaitSatisfiedAt(line, now, val)
				wt, wok := ref.WaitSatisfiedAt(line, now, val)
				if gt != wt || gok != wok {
					t.Fatalf("%s: WaitSatisfiedAt(%d, %#x) = (%d, %v), oracle (%d, %v)", where, line, val, gt, gok, wt, wok)
				}
			default:
				n, stride := 1+rng.Intn(min(13, lines-line)), sim.Duration(rng.Intn(3)*rng.Intn(60))
				m.ReadLinesInto(got, line, n, now, stride)
				ref.ReadLinesInto(want, line, n, now, stride)
				if !bytes.Equal(got[:n*scc.CacheLine], want[:n*scc.CacheLine]) {
					t.Fatalf("%s: ReadLinesInto(%d, %d lines, stride %d) differs from the oracle", where, line, n, stride)
				}
			}
			if g, w := m.unfolded(), len(ref.pending); g != w {
				t.Fatalf("%s: %d unfolded writes, oracle %d", where, g, w)
			}
		}
		// Everything folds in the end, to the same bytes.
		end, refEnd := make([]byte, lines*scc.CacheLine), make([]byte, lines*scc.CacheLine)
		m.ReadLinesInto(end, 0, lines, 1<<50, 0)
		ref.ReadLinesInto(refEnd, 0, lines, 1<<50, 0)
		if !bytes.Equal(end, refEnd) || m.unfolded() != 0 {
			t.Fatalf("seed %d: the final read differs from the oracle, or left %d writes unfolded", seed, m.unfolded())
		}
		total.Add(m.Stats)
	}
	t.Logf("%d streams: %+v, %d single-line writes in list mode", seeds, total, listSingles)
	if floor := int64(seeds) * 25; total.Moves < floor || int64(listSingles) < floor || total.Sweeps < seeds {
		t.Fatalf("the streams made %d queue→list moves, %d list-mode single-line writes and %d sweeps; want ≥ %d, %d and %d",
			total.Moves, listSingles, total.Sweeps, floor, floor, seeds)
	}
}

// TestPageIsExactlyPageBytes: a page must not carry bookkeeping, or the
// allocator rounds it up to the next size class (9472 B for 8193).
func TestPageIsExactlyPageBytes(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != PageBytes {
		t.Fatalf("sizeof(page) = %d, want %d", got, PageBytes)
	}
}

// denseAccessTables is the port accounting portLedger replaced, kept as
// the oracle: two tables indexed by core id, scanned in full for the
// active count.
type denseAccessTables struct {
	lastAccess []sim.Time
	accessLog  [][]sim.Time
}

const accessNever = sim.Time(-1 << 60)

func (m *denseAccessTables) accessSlot(core int) {
	for len(m.lastAccess) <= core {
		m.lastAccess = append(m.lastAccess, accessNever)
		m.accessLog = append(m.accessLog, nil)
	}
}

func (m *denseAccessTables) NoteAccess(core int, t sim.Time, window sim.Duration) int {
	m.accessSlot(core)
	m.lastAccess[core] = t
	log := m.accessLog[core]
	i := 0
	for i < len(log) && log[i]+window < t {
		i++
	}
	if i > 0 {
		n := copy(log, log[i:])
		log = log[:n]
	}
	log = append(log, t)
	m.accessLog[core] = log
	return len(log)
}

func (m *denseAccessTables) ActiveAccessors(t sim.Time, window sim.Duration) int {
	n := 0
	for _, last := range m.lastAccess {
		if last != accessNever && last+window >= t {
			n++
		}
	}
	return n
}

func (m *denseAccessTables) Reset() {
	for i := range m.lastAccess {
		m.lastAccess[i] = accessNever
		m.accessLog[i] = m.accessLog[i][:0]
	}
}

// TestPortLedgerMatchesDenseTables drives the ledger and the dense
// oracle with the same seeded streams of nondecreasing times and requires
// identical (recent, active) at every step: sparse ids, bursts at one
// timestamp, gaps landing exactly on the window edge (still live) and
// one picosecond past it (expired), owner-style queries that record
// nothing, and a Reset mid-stream followed by reuse.
func TestPortLedgerMatchesDenseTables(t *testing.T) {
	const window = 400 * sim.Microsecond
	seeds := int64(40)
	if testing.Short() {
		seeds = 8 // the oracle's full-table scans are slow under -race
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, m := newTestMPB()
		ref := &denseAccessTables{}
		ids := make([]int, 1+rng.Intn(60))
		for i := range ids {
			ids[i] = rng.Intn(10001)
		}
		var now sim.Time
		const steps = 3000
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				m.Reset()
				ref.Reset()
				now = 0
			}
			switch r := rng.Intn(100); {
			case r < 40: // burst: same timestamp
			case r < 80:
				now += sim.Duration(rng.Int63n(int64(window) / 20))
			case r < 88:
				now += window // the oldest same-time record stays live
			case r < 96:
				now += window + 1 // and one picosecond later it is gone
			default:
				now += 3 * window // everything expires
			}
			if rng.Intn(5) == 0 {
				m.accesses.expire(now, window)
				if got, want := len(m.accesses.live), ref.ActiveAccessors(now, window); got != want {
					t.Fatalf("seed %d step %d: owner query at %v: active = %d, oracle %d", seed, step, now, got, want)
				}
				continue
			}
			core := ids[rng.Intn(len(ids))]
			recent, active := m.NoteAccess(core, now, window)
			wantRecent := ref.NoteAccess(core, now, window)
			wantActive := ref.ActiveAccessors(now, window)
			if recent != wantRecent || active != wantActive {
				t.Fatalf("seed %d step %d: core %d at %v: (recent, active) = (%d, %d), oracle (%d, %d)",
					seed, step, core, now, recent, active, wantRecent, wantActive)
			}
		}
	}
}

// TestPortLedgerRejectsDecreasingTime: the ledger's FIFO expiry is only
// correct for nondecreasing times, so a violation must not pass silently.
func TestPortLedgerRejectsDecreasingTime(t *testing.T) {
	_, m := newTestMPB()
	m.NoteAccess(1, 10*sim.Microsecond, sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("an access earlier than the previous one did not panic")
		}
	}()
	m.NoteAccess(2, 9*sim.Microsecond, sim.Microsecond)
}

// TestPortLedgerAllocFree: once its ring and accessor table have grown to
// the window's traffic, the ledger allocates nothing — also across Reset.
func TestPortLedgerAllocFree(t *testing.T) {
	const window = 400 * sim.Microsecond
	_, m := newTestMPB()
	var now sim.Time
	round := func() {
		for i := 0; i < 200; i++ {
			now += window / 64
			m.NoteAccess(1+i%47, now, window)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warmed ledger allocates %.1f objects per 200 accesses, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.Reset(); now = 0; round() }); allocs != 0 {
		t.Fatalf("ledger allocates %.1f objects per Reset+200 accesses, want 0", allocs)
	}
}

// TestPortLedgerFootprintIgnoresCoreID: one access from a very high core
// id costs what one from core 1 costs (the dense tables appended id+1
// entries to two slices).
func TestPortLedgerFootprintIgnoresCoreID(t *testing.T) {
	// The smallest of three readings: the process allocates in the
	// background too (seen once as 6 KiB under -race).
	got := ^uint64(0)
	for try := 0; try < 3; try++ {
		_, m := newTestMPB()
		got = min(got, allocatedBytes(func() { m.NoteAccess(100000, sim.Microsecond, 400*sim.Microsecond) }))
	}
	if got > 1024 {
		t.Fatalf("first access from core 100000 allocated %d bytes, want ≤ 1024", got)
	}
}

// BenchmarkPortLedger measures one port access with `accessors` cores
// hammering the port round-robin inside the window. ns/op must not depend
// on maxid, the highest core id among them (the chip size).
func BenchmarkPortLedger(b *testing.B) {
	const window = 400 * sim.Microsecond
	for _, accessors := range []int{7, 47} {
		for _, maxid := range []int{47, 383} {
			b.Run(fmt.Sprintf("accessors=%d/maxid=%d", accessors, maxid), func(b *testing.B) {
				_, m := newTestMPB()
				ids := make([]int, accessors)
				for i := range ids {
					ids[i] = maxid - i*(maxid/accessors)
				}
				var now sim.Time
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += sim.Microsecond
					m.NoteAccess(ids[i%accessors], now, window)
				}
			})
		}
	}
}
