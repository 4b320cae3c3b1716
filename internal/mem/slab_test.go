package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

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

// TestFlagExtentsNeedNoBuffer: single-line writes — flag sets, five
// extents in six of a broadcast — carry their line inside the record and
// records come from the slab a block at a time, so a thousand of them
// pending at once on a fresh MPB allocate per block and per list
// doubling, not per write.
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
	blocks := (writes + recordsPerBlock(1) - 1) / recordsPerBlock(1)
	// Besides the record blocks: the MPB and its slab (5), the block of
	// list windows, and the pending list doubling from its 16-slot
	// window to 1024 (6 steps). The sweep trigger does not allocate.
	if limit := float64(blocks + 12); objects > limit {
		t.Fatalf("a fresh MPB and %d single-line writes allocated %.0f objects, want ≤ %.0f (%d record blocks + construction and list growth)",
			writes, objects, limit, blocks)
	}
	if len(m.pending) != writes {
		t.Fatalf("%d extents pending, want %d", len(m.pending), writes)
	}
	// Each record kept its own line: the last write to every line wins.
	for l := 0; l < scc.MPBLinesPerCore; l++ {
		if got := m.ReadLine(l, 1<<60); !bytes.Equal(got, line) {
			t.Fatalf("line %d reads %x after the writes folded", l, got[:4])
		}
	}
}

// TestRecycledFlagRecordServesBulkWrite: a record that carried a flag
// grows a heap buffer when it is recycled for a longer extent, keeps it,
// and a later flag write through the same record is still correct.
func TestRecycledFlagRecordServesBulkWrite(t *testing.T) {
	_, m := newTestMPB()
	m.WriteLines(3, lineOf(1), 1, 0, 0)
	m.ReadLine(3, 10) // folds and recycles the record
	bulk := append(append(lineOf(2), lineOf(3)...), lineOf(4)...)
	m.WriteLines(8, bulk, 3, 20, 0)
	var got [3 * scc.CacheLine]byte
	m.ReadLinesInto(got[:], 8, 3, 30, 0)
	if !bytes.Equal(got[:], bulk) {
		t.Fatalf("bulk write through a recycled flag record reads %x", got[:8])
	}
	if allocs := testing.AllocsPerRun(50, func() {
		m.WriteLines(3, lineOf(5), 1, 40, 0)
		m.WriteLines(8, bulk, 3, 40, 0)
		m.ReadLinesInto(got[:], 8, 3, 50, 0)
		m.PeekU64(3, 50)
	}); allocs > 1 { // lineOf allocates the source line
		t.Fatalf("warm flag+bulk round allocates %.1f objects, want ≤ 1", allocs)
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
	// Every MPB takes its windows, in interleaved order.
	for i := range ms {
		ms[i].WriteLines(0, lineOf(byte(0x10+i)), 1, sim.Time(1<<50), 0)
		ms[i].NoteAccess(n+i, 1, window)
	}
	// MPB 1 overflows its list window and its ring several times over.
	for k := 0; k < 5*listWindow; k++ {
		ms[1].WriteLines(1+k%200, lineOf(0xEE), 1, sim.Time(1<<50), 0)
	}
	for k := 0; k < 5*ringWindow; k++ {
		ms[1].NoteAccess(100+k%20, sim.Time(2+k), window)
	}
	ms[2].WriteLines(scc.MPBLinesPerCore-1, lineOf(0x77), 1, 0, 0)
	for i := range ms {
		if i == 1 {
			continue
		}
		if len(ms[i].pending) < 1 || ms[i].pending[0].line[0] != byte(0x10+i) {
			t.Fatalf("MPB %d lost its pending write to MPB 1's list growth", i)
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
	if len(ms[1].pending) != 1+5*listWindow {
		t.Fatalf("MPB 1 holds %d pending extents after MPB 2's Reset, want %d", len(ms[1].pending), 1+5*listWindow)
	}
}

// TestPrivateFarAddress: one byte at the last address of private memory
// costs the page it lands on plus one page-table step sized by that
// page's index (2 MiB at the limit — the table grew one slot at a time
// before, reallocating to 164 MiB for an address of 16 GiB, and had no
// limit at all), and any access that reaches past PrivateBytes panics
// naming the core, the address and the limit. The cache model has the
// same table and the same limit.
func TestPrivateFarAddress(t *testing.T) {
	p := NewPrivate(5)
	last := PrivateBytes - 1
	table := uint64(PrivateBytes / pageBytes * 16)
	got := allocatedBytes(func() { p.Write(last, []byte{0xAB}) })
	if limit := table + 8*pageBytes; got > limit {
		t.Fatalf("one byte at address %d allocated %d bytes, want ≤ %d (one table step + one page)", last, got, limit)
	}
	var b [1]byte
	p.Read(b[:], last, 1)
	if b[0] != 0xAB {
		t.Fatalf("byte at %d reads %#x", last, b[0])
	}
	// A second far write into the grown table costs its page only.
	if got := allocatedBytes(func() { p.Write(PrivateBytes/2, []byte{1}) }); got > 8*pageBytes {
		t.Fatalf("a write inside the grown table allocated %d bytes, want one page", got)
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

	c := NewCache(true)
	got = allocatedBytes(func() { c.Touch(last) })
	if limit := uint64(PrivateBytes / pageBytes * 32 * 5 / 4); got > limit {
		t.Fatalf("touching the last line allocated %d bytes, want ≤ %d (one residency-table step)", got, limit)
	}
	if !c.Hit(last) || c.Len() != 1 {
		t.Fatal("last line not resident after Touch")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint(PrivateBytes)) {
			t.Fatalf("cache touch past the end: panic %q does not name the limit", msg)
		}
	}()
	c.Touch(PrivateBytes)
}

// TestPrivateInlineTableHoldsEightPages: a 64 KiB footprint costs its
// data pages and nothing else, and the step beyond moves the table to
// the heap once.
func TestPrivateInlineTableHoldsEightPages(t *testing.T) {
	buf := make([]byte, pageBytes)
	var ps []Private
	fill := func(beyond bool) func() {
		return func() {
			ps = make([]Private, 2)
			ps[0].Init(0)
			ps[1].Init(1)
			for pg := 0; pg < len(ps[1].firstPages); pg++ {
				ps[1].Write(pg*pageBytes, buf)
			}
			if beyond {
				ps[1].Write(20*pageBytes, buf)
			}
		}
	}
	if objects := testing.AllocsPerRun(5, fill(false)); objects > 9 {
		t.Fatalf("two memories and 8 pages cost %.0f objects, want 9 (the slice and the data pages)", objects)
	}
	if objects := testing.AllocsPerRun(5, fill(true)); objects > 11 {
		t.Fatalf("with a page beyond the inline table that is %.0f objects, want 11 (+ table + page)", objects)
	}
	if ps[0].Owner() != 0 || ps[1].Owner() != 1 || len(ps[0].pages) != 0 || len(ps[1].pages) != 21 {
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
