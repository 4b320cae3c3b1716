package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/scc"
	"repro/internal/sim"
)

// allocatedBytes runs f and reports the bytes it allocated. Whatever else
// the process allocates meanwhile is counted too, so limits compared with
// it leave slack; object counts use testing.AllocsPerRun, which averages
// that away.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFlagExtentsNeedNoBuffer: single-line writes — flag sets, five MPB
// writes in six of a broadcast — are 48-byte records of the slab's arena
// that carry their line, so a thousand of them unfolded at once on a
// fresh MPB allocate per doubling of the arena, not per write, and take
// no extent record at all.
func TestFlagExtentsNeedNoBuffer(t *testing.T) {
	const writes = 1000
	e := sim.NewEngine(1)
	line := lineOf(9)
	var m *MPB
	objects := testing.AllocsPerRun(5, func() {
		m = NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
		for i := 0; i < writes; i++ {
			// Far-future effective times: nothing folds, nothing is
			// swept, every write needs a record of its own.
			m.WriteLines(i%scc.MPBLinesPerCore, line, 1, sim.Time(1<<50)+sim.Time(i), 0)
		}
	})
	// The MPB and its slab (5) and the arena growing from its first 42
	// records to a thousand (≤ 7 steps). The sweep trigger does not
	// allocate.
	if objects > 12 {
		t.Fatalf("a fresh MPB and %d single-line writes allocated %.0f objects, want ≤ 12 (construction and arena growth)", writes, objects)
	}
	if m.unfolded() != writes || len(m.pending) != 0 || m.Stats.Queued != writes {
		t.Fatalf("%d writes unfolded, %d of them extents, want %d and 0", m.unfolded(), len(m.pending), writes)
	}
	// Each record kept its own line: the last write to every line wins.
	for l := 0; l < scc.MPBLinesPerCore; l++ {
		if got := m.ReadLine(l, 1<<60); !bytes.Equal(got, line) {
			t.Fatalf("line %d reads %x after the writes folded", l, got[:4])
		}
	}
}

// TestFlagNeverTakesBulkRecord: flag writes take no extent record, so the
// free list holds only records that have carried a bulk write, whose
// buffers went back to the slab when it folded, and after one warm-up
// round a flag+bulk round allocates nothing.
func TestFlagNeverTakesBulkRecord(t *testing.T) {
	_, m := newTestMPB()
	bulk := append(append(lineOf(2), lineOf(3)...), lineOf(4)...)
	flag := lineOf(5)
	var got [3 * scc.CacheLine]byte
	round := func() {
		m.WriteLines(3, flag, 1, 40, 0)
		m.WriteLines(8, bulk, 3, 40, 0)
		m.ReadLinesInto(got[:], 8, 3, 50, 0)
		m.PeekU64(3, 50)
	}
	round()
	if !bytes.Equal(got[:], bulk) {
		t.Fatalf("bulk write reads back %x", got[:8])
	}
	if len(m.free) != 1 || m.free[0].data != nil {
		t.Fatalf("after one flag and one bulk write the free list holds %d records, want the bulk write's, its buffer back in the slab", len(m.free))
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("warm flag+bulk round allocates %.1f objects, want 0", allocs)
	}
	if m.Stats.Queued != 52 || m.Stats.Listed != 52 || m.unfolded() != 0 {
		t.Fatalf("%+v with %d unfolded: want every flag queued, every bulk write listed, all folded", m.Stats, m.unfolded())
	}
}

// u64Of is the leading uint64 of lineOf(b), what the peeks return.
func u64Of(b byte) uint64 { return uint64(b) * 0x0101010101010101 }

// TestQueuedThenCovered: a line's flag writes are queued until a bulk
// write covers the line; then they move to the pending list ahead of it,
// later flag writes to the line follow it there, and the line's issue
// order — with its future-write block — is what it was. Only that line
// moves.
func TestQueuedThenCovered(t *testing.T) {
	_, m := newTestMPB()
	m.WriteLines(5, lineOf(1), 1, 100, 0)
	m.WriteLines(5, lineOf(2), 1, sim.Micros(1000), 0) // blocks what follows on line 5
	m.WriteLines(9, lineOf(7), 1, 100, 0)
	if m.queued != 3 || len(m.pending) != 0 {
		t.Fatalf("three flag writes: %d queued, %d listed, want 3 and 0", m.queued, len(m.pending))
	}
	m.WriteLines(4, bytes.Repeat(lineOf(3), 4), 4, 150, 0) // lines 4..7
	if m.queued != 1 || len(m.pending) != 3 || m.Stats.Moves != 2 || m.pendCnt[5] != 3 || m.pendCnt[9]&queueTag == 0 {
		t.Fatalf("after a bulk write over line 5: %d queued, %d listed, %d moved, pendCnt[5] = %#x, pendCnt[9] = %#x; want line 5's two writes moved ahead of the extent and line 9 still queued",
			m.queued, len(m.pending), m.Stats.Moves, m.pendCnt[5], m.pendCnt[9])
	}
	m.WriteLines(5, lineOf(4), 1, 120, 0) // an extent still covers line 5: list
	m.WriteLines(9, lineOf(8), 1, 120, 0) // line 9 is still a queue
	if m.queued != 2 || len(m.pending) != 4 || m.unfolded() != 6 {
		t.Fatalf("after two more flag writes: %d queued, %d listed, want 2 and 4", m.queued, len(m.pending))
	}
	for _, c := range []struct {
		line int
		at   sim.Time
		want byte
	}{
		{5, 200, 1}, // the future write holds back the extent's 3 and the later 4
		{4, 200, 3},
		{9, 110, 7},
		{9, 200, 8},
		{5, sim.Micros(1000), 4}, // issue order: the last write wins
		{6, sim.Micros(1000), 3},
	} {
		if probe, peek := m.ProbeU64(c.line, c.at), m.PeekU64(c.line, c.at); probe != u64Of(c.want) || peek != u64Of(c.want) {
			t.Errorf("line %d at %d: ProbeU64 %#x, PeekU64 %#x, want %#x", c.line, c.at, probe, peek, u64Of(c.want))
		}
	}
	m.PeekU64(7, 200)
	if m.unfolded() != 0 || m.pendCnt[5] != 0 || m.pendCnt[9] != 0 {
		t.Fatalf("%d writes still unfolded after every line was read", m.unfolded())
	}
	m.WriteLines(5, lineOf(6), 1, sim.Micros(2000), 0)
	if m.queued != 1 {
		t.Fatal("line 5 did not go back to its queue once the extent had folded")
	}
}

// TestFutureQueuedWriteBlocksItsLine: a queued write in the far future
// keeps the writes issued to its line after it from folding, whichever
// path does the folding, and lets the ones issued before it through.
func TestFutureQueuedWriteBlocksItsLine(t *testing.T) {
	for _, c := range []struct {
		name   string
		fold   func(m *MPB)
		queued int // afterwards: settle leaves line 8 alone
	}{
		{"settle", func(m *MPB) { m.settle(7, 300) }, 3},
		{"settleRange", func(m *MPB) { m.settleRange(6, 3, 300, 0) }, 2},
		{"sweepPending", func(m *MPB) { m.settle(0, 300); m.sweepPending() }, 2},
	} {
		name := c.name
		_, m := newTestMPB()
		m.WriteLines(7, lineOf(0x11), 1, 100, 0)
		m.WriteLines(7, lineOf(0x22), 1, sim.Micros(1000), 0)
		m.WriteLines(7, lineOf(0x33), 1, 200, 0)
		m.WriteLines(8, lineOf(0x44), 1, 200, 0)
		c.fold(m)
		if got := m.data[7*scc.CacheLine]; got != 0x11 || m.pendCnt[7]&queueTag == 0 || m.queued != c.queued {
			t.Errorf("%s to 300: line 7 holds %#x and %d writes are queued, want 11 and %d", name, got, m.queued, c.queued)
		}
		if got := m.ProbeU64(7, sim.Micros(999)); got != u64Of(0x11) {
			t.Errorf("%s: line 7 will read %#x just before the future write lands, want 11..", name, got)
		}
		if got := m.PeekU64(7, sim.Micros(1000)); got != u64Of(0x33) || m.pendCnt[7] != 0 {
			t.Errorf("%s: line 7 reads %#x once the future write has landed, want the last-issued 33..", name, got)
		}
	}
}

// TestSettleRangeOverQueuesAndExtents: a bulk read over lines whose
// unfolded writes are queued, lines under extents and lines with nothing
// pending folds exactly what settling each line at its own time folds.
func TestSettleRangeOverQueuesAndExtents(t *testing.T) {
	build := func() *MPB {
		_, m := newTestMPB()
		m.WriteLines(10, lineOf(1), 1, 100, 0)
		m.WriteLines(10, lineOf(2), 1, 260, 0)
		m.WriteLines(11, lineOf(3), 1, 5000, 0)
		m.WriteLines(11, lineOf(4), 1, 100, 0) // behind a future write
		m.WriteLines(13, bytes.Repeat(lineOf(5), 4), 4, 200, 30)
		m.WriteLines(14, lineOf(6), 1, 240, 0) // list mode
		m.WriteLines(19, lineOf(7), 1, 290, 0)
		m.WriteLines(20, lineOf(8), 1, 100, 0) // beyond the range
		return m
	}
	for _, read := range []struct {
		t0     sim.Time
		stride sim.Duration
	}{{50, 0}, {250, 0}, {150, 15}, {200, 30}, {6000, 0}} {
		a, b := build(), build()
		a.settleRange(10, 10, read.t0, read.stride)
		for i := 0; i < 10; i++ {
			b.settle(10+i, read.t0+sim.Duration(i)*read.stride)
		}
		if !bytes.Equal(a.data, b.data) || a.queued != b.queued || len(a.pending) != len(b.pending) || a.settledAt != b.settledAt {
			t.Errorf("read at %d stride %d: settleRange leaves %d queued, %d listed; per-line settle %d, %d (or the bytes differ)",
				read.t0, read.stride, a.queued, len(a.pending), b.queued, len(b.pending))
		}
		if a.pendCnt[20]&queueTag == 0 {
			t.Errorf("read at %d: line 20, outside the range, was folded", read.t0)
		}
	}
}

// freeFlagRecords walks the arena's free chain.
func freeFlagRecords(s *Slab) (n int) {
	for id := s.flagFree; id != 0; id = s.flags[id-1].next {
		n++
	}
	return n
}

// TestResetReturnsQueuedWritesToArena: the MPBs of a chip draw their
// queues from one arena without seeing each other's writes, and Reset
// gives every queued record back, so an identical second run allocates
// nothing and the arena does not grow.
func TestResetReturnsQueuedWritesToArena(t *testing.T) {
	const n = 3
	e := sim.NewEngine(n)
	slab := NewSlab(n, scc.MPBLinesPerCore)
	ms := make([]MPB, n)
	for i := range ms {
		ms[i].Init(e, i, sim.Micros(0.0065), slab, i)
	}
	var lines [n][scc.CacheLine]byte
	for i := range lines {
		copy(lines[i][:], lineOf(byte(0x10+i)))
	}
	run := func() {
		for k := 0; k < 60; k++ {
			for i := range ms { // interleaved: neighbouring arena records belong to different MPBs
				ms[i].WriteLines(k%20, lines[i][:], 1, sim.Time(100+k), 0)
				ms[i].WriteLines(30+k, lines[i][:], 1, 1<<50, 0) // never read: queued until Reset
			}
		}
		for i := range ms {
			for l := 0; l < 20; l += 2 {
				if got := ms[i].PeekU64(l, 1000); got != u64Of(byte(0x10+i)) {
					t.Fatalf("MPB %d line %d reads %#x: not its own write", i, l, got)
				}
			}
			if ms[i].queued != 60+3*10 {
				t.Fatalf("MPB %d has %d writes queued, want 90", i, ms[i].queued)
			}
		}
	}
	reset := func() {
		for i := range ms {
			ms[i].Reset()
		}
	}
	run()
	ms[0].Reset()
	if ms[0].queued != 0 || ms[1].queued != 90 || ms[1].ProbeU64(1, 1000) != u64Of(0x11) {
		t.Fatal("MPB 0's Reset disturbed MPB 1's queues")
	}
	reset()
	arena := len(slab.flags)
	if free := freeFlagRecords(slab); free != arena || arena < n*90 {
		t.Fatalf("after Reset %d of the arena's %d records are free", free, arena)
	}
	if allocs := testing.AllocsPerRun(10, func() { run(); reset() }); allocs != 0 || len(slab.flags) != arena {
		t.Fatalf("a second identical run allocates %.1f objects and takes the arena from %d to %d records, want 0 and no growth", allocs, arena, len(slab.flags))
	}
}

// TestArenaGrowsUnderAQueue: appending to a line's queue walks it to its
// tail after taking the new record, which may have moved the arena; the
// queue must come through every move intact and in issue order.
func TestArenaGrowsUnderAQueue(t *testing.T) {
	_, m := newTestMPB()
	first := alloc.Fill[flagWrite](m.slab.recBlock)
	moves, writes := 0, 8*first
	for k := 0; k < writes; k++ {
		before := cap(m.slab.flags)
		m.WriteLines(7, lineOf(byte(k)), 1, 1<<50+sim.Time(k), 0)
		m.WriteLines(8+k%100, lineOf(0xEE), 1, 1<<50, 0) // other queues, interleaved in the arena
		if before != 0 && cap(m.slab.flags) != before {
			moves++
		}
	}
	if moves < 3 {
		t.Fatalf("the arena moved %d times under %d writes, want ≥ 3", moves, 2*writes)
	}
	k := 0
	for id := m.pendCnt[7] &^ queueTag; id != 0; id = m.slab.flags[id-1].next {
		if f := m.slab.flags[id-1]; f.line[0] != byte(k) || f.eff != 1<<50+sim.Time(k) {
			t.Fatalf("write %d of line 7's queue holds %#x landing at %d", k, f.line[0], f.eff)
		}
		k++
	}
	if k != writes {
		t.Fatalf("line 7's queue holds %d writes, want %d", k, writes)
	}
	if got := m.PeekU64(7, 1<<50+sim.Time(writes/2)); got != u64Of(byte(writes/2)) || m.queued != 2*writes-(writes/2+1) {
		t.Fatalf("half-way through its queue line 7 reads %#x with %d writes left queued", got, m.queued)
	}
}

// TestSlabWindowsAreIndependent: MPBs built over one slab share storage
// but not state — a list that outgrows its window, a ring that doubles
// and a line written in one MPB leave its neighbours untouched.
func TestSlabWindowsAreIndependent(t *testing.T) {
	const n, window = 4, 400 * sim.Microsecond
	e := sim.NewEngine(n)
	slab := NewSlab(n, scc.MPBLinesPerCore)
	ms := make([]MPB, n)
	for i := range ms {
		ms[i].Init(e, i, sim.Micros(0.0065), slab, i)
	}
	for i := range ms {
		if ms[i].Owner() != i || ms[i].Lines() != scc.MPBLinesPerCore {
			t.Fatalf("MPB %d: owner %d, %d lines", i, ms[i].Owner(), ms[i].Lines())
		}
		if got, want := ms[i].PortName(), fmt.Sprintf("mpb[%d]", i); got != want {
			t.Fatalf("MPB %d port is named %q, want %q", i, got, want)
		}
	}
	// Every MPB takes its windows and a record of the flag arena, in
	// interleaved order.
	two := func(b byte) []byte { return append(lineOf(b), lineOf(b)...) }
	for i := range ms {
		ms[i].WriteLines(0, two(byte(0x10+i)), 2, sim.Time(1<<50), 0)
		ms[i].WriteLines(2, lineOf(byte(0x20+i)), 1, sim.Time(1<<50), 0)
		ms[i].NoteAccess(n+i, 1, window)
	}
	// MPB 1 overflows its list window and its ring several times over,
	// and grows the arena.
	for k := 0; k < 5*listWindow; k++ {
		ms[1].WriteLines(3+2*(k%100), two(0xEE), 2, sim.Time(1<<50), 0)
		ms[1].WriteLines(210+k%40, lineOf(0xEF), 1, sim.Time(1<<50), 0)
	}
	for k := 0; k < 5*ringWindow; k++ {
		ms[1].NoteAccess(100+k%20, sim.Time(2+k), window)
	}
	ms[2].WriteLines(scc.MPBLinesPerCore-1, lineOf(0x77), 1, 0, 0)
	for i := range ms {
		if i == 1 {
			continue
		}
		if ext, flag := ms[i].ProbeU64(0, 1<<50), ms[i].ProbeU64(2, 1<<50); ms[i].unfolded() < 2 || byte(ext) != byte(0x10+i) || byte(flag) != byte(0x20+i) {
			t.Fatalf("MPB %d lost an unfolded write to MPB 1's growth (lines 0 and 2 will read %#x and %#x)", i, ext, flag)
		}
		if recent, active := ms[i].NoteAccess(n+i, sim.Time(3), window); recent != 2 || active != 1 {
			t.Fatalf("MPB %d ledger reads recent=%d active=%d after MPB 1's ring growth, want 2 and 1", i, recent, active)
		}
	}
	if got := ms[2].ReadLine(scc.MPBLinesPerCore-1, 1); got[0] != 0x77 {
		t.Fatal("MPB 2's last line did not take its write")
	}
	if got := ms[3].ReadLine(0, 1); got[0] != 0 {
		t.Fatalf("MPB 3 line 0 reads %#x: its neighbour's last line leaked into it", got[0])
	}
	// Reset keeps what each MPB has taken and zeroes only its own lines.
	ms[2].Reset()
	if got := ms[2].ReadLine(scc.MPBLinesPerCore-1, 1); got[0] != 0 {
		t.Fatal("Reset left MPB 2's line set")
	}
	if ms[1].unfolded() != 2+10*listWindow || len(ms[1].pending) != 1+5*listWindow || ms[2].unfolded() != 0 {
		t.Fatalf("MPB 1 holds %d unfolded writes after MPB 2's Reset, want %d", ms[1].unfolded(), 2+10*listWindow)
	}
}

// TestPrivateFarAddress: one byte at the last address of private memory
// costs the page it lands on plus one page-table step sized by that
// page's index — at most 2 MiB + 64 KiB, the bound of the 8 KiB pages
// this table once had (it grew one slot at a time before that,
// reallocating to 164 MiB for an address of 16 GiB, and had no limit at
// all) — and any access that reaches past PrivateBytes panics naming the
// core, the address and the limit. The cache model has the same limit,
// and its residency table step stays within 5 MiB.
func TestPrivateFarAddress(t *testing.T) {
	p := NewPrivate(5)
	last := PrivateBytes - 1
	got := allocatedBytes(func() { p.Write(last, []byte{0xAB}) })
	if limit := uint64(2<<20 + 64<<10); got > limit {
		t.Fatalf("one byte at address %d allocated %d bytes, want ≤ %d (one table step + one page)", last, got, limit)
	}
	var b [1]byte
	p.Read(b[:], last, 1)
	if b[0] != 0xAB {
		t.Fatalf("byte at %d reads %#x", last, b[0])
	}
	// A second far write into the grown table costs its page only.
	if got := allocatedBytes(func() { p.Write(PrivateBytes/2, []byte{1}) }); got > 64<<10 {
		t.Fatalf("a write inside the grown table allocated %d bytes, want ≤ 64 KiB (a page block)", got)
	}
	p.Reset()
	p.Read(b[:], last, 1)
	if b[0] != 0 {
		t.Fatal("Reset left the far byte set")
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"private[5]", fmt.Sprint(PrivateBytes)} {
				if !strings.Contains(msg, want) {
					t.Fatalf("%s: panic %q does not mention %q", what, msg, want)
				}
			}
		}()
		f()
	}
	mustPanic("write past the end", func() { p.Write(PrivateBytes, []byte{1}) })
	mustPanic("write straddling the end", func() { p.Write(last, []byte{1, 2}) })
	mustPanic("read past the end", func() { p.Read(b[:], 1<<40, 1) })
	mustPanic("length overflow", func() { p.Read(nil, 8, int(^uint(0)>>1)) })

	c := newCache(true)
	got = allocatedBytes(func() { c.TouchRange(last, 1) })
	if limit := uint64(5 << 20); got > limit {
		t.Fatalf("touching the last line allocated %d bytes, want ≤ %d (one residency-table step)", got, limit)
	}
	if !c.Hit(last) || c.Len() != 1 {
		t.Fatal("last line not resident after TouchRange")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint(PrivateBytes)) {
			t.Fatalf("cache touch past the end: panic %q does not name the limit", msg)
		}
	}()
	c.TouchRange(PrivateBytes, 1)
}

// TestPrivatePagesPerChipNotPerCore: a chip's private memories take
// their pages and page tables from the slab they share, the pages from a
// first block of one per core, so a distinct page written on every core
// costs the same handful of objects on 2 cores as on 384, and one page
// written on every core is held once; a write far beyond a table's
// window moves it to a larger window of the slab, and what it reads back
// is what was written.
func TestPrivatePagesPerChipNotPerCore(t *testing.T) {
	buf := make([]byte, PageBytes)
	for i := range buf {
		buf[i] = byte(i)
	}
	var slab *Slab
	var ps []Private
	fill := func(n int, distinct bool) func() {
		return func() {
			slab = NewSlab(n, 1)
			ps = make([]Private, n)
			for i := range ps {
				ps[i].Init(i, slab)
				if distinct {
					binary.LittleEndian.PutUint32(buf, uint32(i))
				}
				ps[i].Write(0, buf)
			}
		}
	}
	for _, n := range []int{2, 48, 384} {
		// The slab (4), the slice, the first page block and the content
		// table, and one page-table block with its class's entry in the
		// slab.
		for _, distinct := range []bool{true, false} {
			objects := testing.AllocsPerRun(5, fill(n, distinct))
			if objects != 9 {
				t.Errorf("%d memories writing a page each (distinct %v) cost %.0f objects, want 9", n, distinct, objects)
			}
			want := PageBytes
			if distinct {
				want *= n
			}
			if held := slab.HeldBytes(); held != want {
				t.Errorf("%d memories writing a page each (distinct %v) hold %d bytes, want %d", n, distinct, held, want)
			}
		}
	}
	ps[1].Write(20*PageBytes, buf)
	if len(ps[0].pages) != 1 || len(ps[1].pages) != 21 || cap(ps[1].pages) != slotWindow {
		t.Fatalf("tables of %d and %d slots (cap %d), want 1 and 21 (cap %d)", len(ps[0].pages), len(ps[1].pages), cap(ps[1].pages), slotWindow)
	}
	ps[1].Write(40*PageBytes, buf)
	if len(ps[1].pages) != 41 || cap(ps[1].pages) != 2*slotWindow {
		t.Fatalf("table of %d slots (cap %d), want 41 (cap %d)", len(ps[1].pages), cap(ps[1].pages), 2*slotWindow)
	}
	if held := slab.HeldBytes(); held != PageBytes {
		t.Fatalf("one page written at three addresses holds %d bytes, want one page", held)
	}
	got := make([]byte, PageBytes)
	for _, addr := range []int{0, 20 * PageBytes, 40 * PageBytes} {
		ps[1].Read(got, addr, PageBytes)
		if !bytes.Equal(got, buf) {
			t.Fatalf("page at %d does not read back", addr)
		}
	}
	ps[0].Read(got, 0, PageBytes)
	if !bytes.Equal(got, buf) {
		t.Fatal("neighbouring memory disturbed")
	}
}

// BenchmarkFlagWriteFold is the life of one flag on a fresh MPB, the
// cold path every op of the repository's benchmark takes: construction,
// a single-line write, a side-effect-free peek while it is pending, and
// the settle that folds it.
func BenchmarkFlagWriteFold(b *testing.B) {
	e := sim.NewEngine(1)
	line := lineOf(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMPB(e, 0, scc.MPBLinesPerCore, sim.Micros(0.0065))
		m.WriteLines(7, line, 1, 100, 0)
		if m.ProbeU64(7, 50) != 0 {
			b.Fatal("flag visible before its effective time")
		}
		if m.PeekU64(7, 100) == 0 {
			b.Fatal("flag not visible at its effective time")
		}
	}
}

// BenchmarkFlagRound is one flag handshake on a warm MPB — a single-line
// write, the wait check that finds it pending, the peek that folds it —
// with `unread` flags on other lines that nobody will read again (a
// finished collective's last done flags). ns/op must not depend on
// unread (42 ns at each where this was written); it read 56 / 130 /
// 266 ns when every read walked one pending list.
func BenchmarkFlagRound(b *testing.B) {
	for _, unread := range []int{0, 15, 40} {
		b.Run(fmt.Sprintf("unread=%d", unread), func(b *testing.B) {
			_, m := newTestMPB()
			line := lineOf(0)
			for i := 0; i < unread; i++ {
				m.WriteLines(100+i, line, 1, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, seq := sim.Time(i)*10, uint64(i+1)
				binary.LittleEndian.PutUint64(line, seq)
				m.WriteLines(7, line, 1, now+5, 0)
				if te, ok := m.WaitSatisfiedAt(7, now, seq); !ok || m.PeekU64(7, te) != seq {
					b.Fatalf("round %d: flag not seen", i)
				}
			}
		})
	}
}
