// Package mem implements the SCC's storage components as seen by the
// simulator: per-core Message Passing Buffers (MPB, paper §2.1) with the
// 32-byte line atomicity §5.1 relies on and the FIFO port contention
// model of §3.3, per-core private off-chip memory, and the L1-style
// cache model for private-memory reads that Formula 14 exploits. MPB
// capacity comes from the chip's topology (256 lines per core on the
// real SCC).
//
// Writes carry an effective virtual timestamp: a read at time t observes
// exactly the writes whose effective time is ≤ t. Because the engine
// executes operations in nondecreasing global time order, pending writes
// can be folded into the backing store lazily.
//
// A not-yet-visible bulk transfer is one *extent*: a pendingExtent record
// covers the whole contiguous write (base effective time plus a constant
// per-line stride), so an m-line RMA op costs one record in the MPB's
// pending list instead of m per-line entries. A single-line write — a
// flag set, five MPB writes in six — is a 48-byte flagWrite in its line's
// own queue, so a read of one line never walks the unread flags of the
// others (MPB.pendCnt has the rule). WriteLines/ReadLinesInto are the bulk
// entry points; WriteLine/ReadLine remain as the single-line special case.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/scc"
	"repro/internal/sim"
)

// MPB is one core's message-passing buffer (8 KB on the real SCC; the
// capacity comes from the chip's topology). All accesses are at
// cache-line granularity; the SCC guarantees read/write atomicity per
// 32 B line (paper §5.1), which the simulator enforces structurally by
// only moving whole lines.
type MPB struct {
	owner int // core id
	lines int // capacity in cache lines
	eng   *sim.Engine
	// slab is the backing shared with the chip's other MPBs (its own
	// for an MPB made by NewMPB): data, pendCnt, dirty and sweepBlocked
	// below are this MPB's windows of it, the line queues live in its
	// flagWrite arena, and extent records, payload buffers and the
	// windows of pending, free and the port ledger come from it.
	slab *Slab
	data []byte

	// pending holds the not-yet-visible write extents that pendCnt's rule
	// sends here, in issue order. The extents covering a given line form
	// that line's write queue: writes are issued in nondecreasing time
	// order, and each line folds its own prefix independently.
	pending []*pendingExtent
	// free recycles fully folded extents so the steady-state write path
	// allocates nothing. A record stays with the MPB that first took it
	// from the slab; its payload buffer goes back to the slab.
	free []*pendingExtent
	// pendCnt says, per line, where the line's unfolded writes are; they
	// are always all in one place. 0: there are none, and a read is done
	// in O(1). queueTag|id: in the line's own queue — flagWrite records
	// of the slab's arena chained in issue order from record id — and a
	// read walks only them. Otherwise: in `pending`, and this is the
	// number of its extents whose write to the line has not folded yet.
	// The home rule: a single-line write joins its line's queue unless a
	// list extent still covers the line, and then follows that extent in
	// the list; a multi-line write goes to the list, after the queued
	// writes of every line it covers have moved there ahead of it, in
	// order, as single-line extents.
	pendCnt []uint32
	queued  int // writes in the line queues
	// settledAt is the largest read time settle has folded to — a safe
	// fold horizon for sweepPending, because the engine executes
	// operations in nondecreasing global time order, so every future
	// read happens at or after it.
	settledAt sim.Time
	// sweepAt is the number of unfolded writes that triggers the next
	// sweepPending, doubled after each sweep so a workload whose writes
	// genuinely cannot fold yet pays amortized O(1) per write.
	sweepAt int
	// sweepBlocked is sweepPending's and settleRange's reusable per-line
	// blocked bitmap.
	sweepBlocked []uint64
	// dirty marks lines whose backing bytes have been written (folded)
	// since the last Reset, so Reset zeroes only those lines instead of
	// the whole buffer — most simulations touch a handful of lines per
	// MPB, and pooled reruns pay per line used, not per line owned.
	dirty []uint64

	// Port is the FIFO server modelling the MPB's access port, the
	// contention point measured in Figure 4 (PortName names it).
	Port sim.Resource

	// accesses records who touched the port within the trailing contention
	// window, for §3.3's beyond-the-knee penalty.
	accesses portLedger

	// wait is the reusable wait condition of the flag waits: in this codebase
	// only the MPB's owner ever waits on its own MPB (flag waits are
	// local polls), so one embedded record suffices; a concurrent second
	// waiter falls back to a one-shot closure.
	wait u64Wait

	// Stats counts the pending-write index's work since the last Reset.
	Stats PendingStats
}

// PendingStats is the work an MPB's pending-write index has done, in
// deterministic counts a test can gate on where a wall clock is too noisy.
// Reads are the scans (settle, peekU64At, settleRange per queued line and
// per list pass) that found unfolded writes on their line, Visited the
// write records those examined; Queued and Listed the writes issued to a
// line queue and to the pending list; Moves the queued writes a multi-line
// write over their line moved to the list; Sweeps the sweepPending runs.
type PendingStats struct{ Reads, Visited, Queued, Listed, Moves, Sweeps int64 }

// Add accumulates o into s.
func (s *PendingStats) Add(o PendingStats) {
	s.Reads, s.Visited, s.Queued = s.Reads+o.Reads, s.Visited+o.Visited, s.Queued+o.Queued
	s.Listed, s.Moves, s.Sweeps = s.Listed+o.Listed, s.Moves+o.Moves, s.Sweeps+o.Sweeps
}

// queueTag marks a pendCnt word that holds a line queue's head id.
const queueTag uint32 = 1 << 31

// flagWrite is one unfolded single-line write in its line's queue: line
// becomes visible at eff, and next is the id of the write issued to the
// same line after it (0: none). Records are pointer-free and live in the
// slab's arena, which moves as it grows: hold ids across Slab.newFlag.
type flagWrite struct {
	eff  sim.Time
	next uint32
	line [scc.CacheLine]byte
}

// u64Wait is an MPB's embedded flag-wait condition. Reusing it across
// waits keeps the steady-state block path allocation-free; the fields
// are rewritten per wait and the record is released when the process
// wakes.
type u64Wait struct {
	m      *MPB
	p      *sim.Proc
	line   int
	val    uint64
	active bool
}

func (w *u64Wait) Holds() bool {
	_, ok := w.m.satisfiedAt(w.line, w.p.Now(), w.val)
	return ok
}

// pendingExtent is one not-yet-folded bulk write of n consecutive lines
// starting at line0, where line line0+i becomes visible at eff0+i·stride.
// applied marks lines already folded into the backing store (each line
// settles independently, in its own prefix order); it is sized to the
// extent (one bit per line) and recycled with it, so MPB capacity can
// vary per topology without a compile-time bound.
//
// Records live in the slab's blocks and point into themselves (data at
// line, applied at appliedArr), so they are only ever handled by pointer.
type pendingExtent struct {
	// line0, n and nApplied are line counts within one MPB; 32 bits
	// each keep the record at 144 bytes.
	line0, n int32
	nApplied int32
	eff0     sim.Time
	stride   sim.Duration
	// data is the n×32 payload bytes: the record's own line for a
	// single-line extent (rare: flag writes are queued, see MPB.pendCnt),
	// else a buffer of the slab's, which goes back when the record is
	// recycled.
	data    []byte
	line    [scc.CacheLine]byte
	applied []uint64
	// appliedArr backs applied without a separate heap allocation for
	// extents of up to 256 lines (any default-topology transfer); larger
	// MPB shares fall back to an owned slice.
	appliedArr [4]uint64
}

func (x *pendingExtent) covers(line int) bool {
	return line >= int(x.line0) && line < int(x.line0+x.n)
}

func (x *pendingExtent) effAt(line int) sim.Time {
	return x.eff0 + sim.Duration(line-int(x.line0))*x.stride
}

func (x *pendingExtent) lineData(line int) []byte {
	off := (line - int(x.line0)) * scc.CacheLine
	return x.data[off : off+scc.CacheLine]
}

func (x *pendingExtent) isApplied(line int) bool {
	i := line - int(x.line0)
	return x.applied[i/64]&(1<<(i%64)) != 0
}

func (x *pendingExtent) markApplied(line int) {
	i := line - int(x.line0)
	x.applied[i/64] |= 1 << (i % 64)
	x.nApplied++
}

// NewMPB creates core owner's MPB of `lines` cache lines (the per-core
// share from the chip's topology; 256 on the real SCC) backed by engine
// e, over a slab of its own. A chip holds its MPBs by value and runs
// Init on each over one shared slab.
func NewMPB(e *sim.Engine, owner, lines int, readSvc sim.Duration) *MPB {
	m := new(MPB)
	m.Init(e, owner, readSvc, NewSlab(1, lines), 0)
	return m
}

// Init makes m core owner's MPB in place, over window `slot` of slab s
// (0 ≤ slot < the slab's MPB count, each slot used once). m points into
// itself and must not be copied afterwards.
func (m *MPB) Init(e *sim.Engine, owner int, readSvc sim.Duration, s *Slab, slot int) {
	lines := s.lines
	words := (lines + 63) / 64
	bitmaps := window(s.bitmaps, slot, 2*words)
	*m = MPB{
		owner:        owner,
		lines:        lines,
		eng:          e,
		slab:         s,
		data:         window(s.data, slot, lines*scc.CacheLine),
		pendCnt:      window(s.pendCnt, slot, lines),
		dirty:        window(bitmaps, 0, words),
		sweepBlocked: window(bitmaps, 1, words),
	}
	m.Port.Init(readSvc)
}

// window returns the i-th size-element window of s, capped at its own
// length so an append can never run into the next one.
func window[T any](s []T, i, size int) []T {
	return s[i*size : (i+1)*size : (i+1)*size]
}

// PortName names the MPB's port in resource-usage reports.
func (m *MPB) PortName() string { return fmt.Sprintf("mpb[%d]", m.owner) }

// NoteAccess records that remote core touched this MPB's port at time t
// (the owner's own accesses are not recorded) and returns recent, its
// accesses within the trailing window including this one — a single burst
// (one OC-Bcast chunk) is not sustained pressure, Figure 4's back-to-back
// loops are — and active, the distinct cores in the window, which the
// paper's ~24-core contention knee is measured against. See portLedger.
func (m *MPB) NoteAccess(core int, t sim.Time, window sim.Duration) (recent, active int) {
	return m.accesses.note(core, t, window, m.slab)
}

// Owner reports the core id owning this MPB.
func (m *MPB) Owner() int { return m.owner }

// Lines reports the MPB capacity in cache lines.
func (m *MPB) Lines() int { return m.lines }

// watchKey returns the engine watch key for a line of this MPB.
func (m *MPB) watchKey(line int) sim.WatchKey {
	return sim.WatchKey{Space: m.owner, Line: line}
}

func (m *MPB) checkLine(line int) {
	if line < 0 || line >= m.lines {
		panic(fmt.Sprintf("mem: MPB[%d] line %d out of range [0,%d)", m.owner, line, m.lines))
	}
}

// settle folds pending writes with effective time ≤ t into the backing
// store for the given line. Per line, folding stops at the first pending
// write in the future — each line consumes its own issue-order prefix.
func (m *MPB) settle(line int, t sim.Time) {
	if t > m.settledAt {
		m.settledAt = t
	}
	left := m.pendCnt[line]
	if left == 0 {
		return
	}
	m.Stats.Reads++
	if left&queueTag != 0 {
		m.Stats.Visited += m.foldQueue(line, t)
		return
	}
	completed := false
	for _, x := range m.pending {
		m.Stats.Visited++
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if x.effAt(line) > t {
			break
		}
		m.fold(x, line)
		completed = completed || x.nApplied == x.n
		if left--; left == 0 {
			break // every unapplied extent for this line seen
		}
	}
	if completed {
		m.compact()
	}
}

// foldQueue is settle for a line whose unfolded writes are queued: the
// leading writes with effective time ≤ t fold (only the last one's bytes
// need to reach the backing store) and go back to the arena as one chain.
// It returns the number of records it examined.
func (m *MPB) foldQueue(line int, t sim.Time) int64 {
	flags := m.slab.flags
	head := m.pendCnt[line] &^ queueTag
	n, last, id := 0, uint32(0), head
	for ; id != 0 && flags[id-1].eff <= t; id = flags[id-1].next {
		n, last = n+1, id
	}
	if n > 0 {
		copy(m.data[line*scc.CacheLine:], flags[last-1].line[:])
		m.dirty[line/64] |= 1 << (line % 64)
		m.slab.freeFlags(head, last)
		m.queued -= n
	}
	m.pendCnt[line] = 0
	if id != 0 {
		m.pendCnt[line] = queueTag | id
		n++ // the future write that ended the walk was examined too
	}
	return int64(n)
}

// unfolded is what the sweep trigger counts: the writes not folded yet.
func (m *MPB) unfolded() int { return len(m.pending) + m.queued }

// rangeClear reports whether no bit in [lo, hi) of the bitmap is set.
func rangeClear(bits []uint64, lo, hi int) bool {
	for w := lo / 64; w <= (hi-1)/64; w++ {
		mask := ^uint64(0)
		if w == lo/64 {
			mask &= ^uint64(0) << (lo % 64)
		}
		if w == (hi-1)/64 {
			mask &= ^uint64(0) >> (63 - (hi-1)%64)
		}
		if bits[w]&mask != 0 {
			return false
		}
	}
	return true
}

// fold copies one pending line into the backing store and maintains the
// per-line unapplied index.
func (m *MPB) fold(x *pendingExtent, line int) {
	copy(m.data[line*scc.CacheLine:], x.lineData(line))
	m.dirty[line/64] |= 1 << (line % 64)
	x.markApplied(line)
	m.pendCnt[line]--
}

// compact recycles every fully folded extent, wherever it sits in the
// list: a fully folded extent is invisible to reads (they skip applied
// lines), so removal order doesn't matter. Extents covering lines that
// are written but never read again (e.g. a collective's unread flag
// slots) can therefore not pin completed extents behind them.
func (m *MPB) compact() {
	kept := m.pending[:0]
	for _, x := range m.pending {
		if x.nApplied == x.n {
			m.recycle(x)
		} else {
			kept = append(kept, x)
		}
	}
	for j := len(kept); j < len(m.pending); j++ {
		m.pending[j] = nil
	}
	m.pending = kept
}

func (m *MPB) recycle(x *pendingExtent) {
	for i := range x.applied {
		x.applied[i] = 0
	}
	if x.n > 1 {
		m.slab.bufs.Give(x.data)
	}
	x.data = nil
	x.nApplied = 0
	x.n = 0
	m.free = m.slab.lists.Append(m.free, x)
}

// newExtent returns a recycled extent record for n lines, or a fresh one
// from the slab when the MPB has none to recycle (the slab makes them a
// block at a time); the applied bitmap is recycled with the record, so
// the steady-state write path allocates nothing. The caller sets data.
func (m *MPB) newExtent(n int) *pendingExtent {
	var x *pendingExtent
	if k := len(m.free); k > 0 {
		x = m.free[k-1]
		m.free[k-1] = nil
		m.free = m.free[:k-1]
	} else {
		x = m.slab.record()
	}
	words := (n + 63) / 64
	switch {
	case words <= len(x.appliedArr):
		x.applied = x.appliedArr[:words]
	case cap(x.applied) >= words:
		x.applied = x.applied[:words]
	default:
		x.applied = make([]uint64, words)
	}
	x.n = int32(n)
	return x
}

// sweepPending folds every pending line value whose effective time has
// already been observed by some read (settledAt is a safe horizon: the
// engine executes operations in nondecreasing global time order, so no
// future read can arrive earlier). Without it, an extent whose lines are
// never read again — a collective's final flag write, a lane's abandoned
// slot — stays pending for the rest of the simulation: the pool starves,
// and every settle scans an ever-growing list, turning long replays
// quadratic. The trigger threshold doubles when a sweep cannot shrink
// the list (extents genuinely still in the future), keeping the
// amortized cost per write O(1).
func (m *MPB) sweepPending() {
	m.Stats.Sweeps++
	blocked := m.sweepBlocked
	clear(blocked)
	completed := false
	for _, x := range m.pending {
		for line := int(x.line0); line < int(x.line0+x.n); line++ {
			if blocked[line/64]&(1<<(line%64)) != 0 || x.isApplied(line) {
				continue
			}
			if x.effAt(line) > m.settledAt {
				// A future write blocks this line's queue: later
				// extents must not fold ahead of it.
				blocked[line/64] |= 1 << (line % 64)
				continue
			}
			m.fold(x, line)
			completed = completed || x.nApplied == x.n
		}
	}
	if completed {
		m.compact()
	}
	for line, w := range m.pendCnt {
		if w&queueTag != 0 {
			m.foldQueue(line, m.settledAt)
		}
	}
	m.sweepAt = max(2*m.unfolded(), sweepMinPending)
}

// sweepMinPending is the number of unfolded writes below which
// sweepPending is never triggered: a few are cheap to scan and recycle
// naturally.
const sweepMinPending = 64

// ReadLine returns the 32-byte content of a line as visible at time t.
// The returned slice is a copy.
func (m *MPB) ReadLine(line int, t sim.Time) []byte {
	m.checkLine(line)
	m.settle(line, t)
	out := make([]byte, scc.CacheLine)
	copy(out, m.data[line*scc.CacheLine:])
	return out
}

// ReadLinesInto copies n consecutive lines starting at line0 into dst
// (≥ n×32 bytes), where line line0+i is read as visible at t0+i·stride —
// the per-line read times of a bulk RMA op whose per-line cost is
// constant. It allocates nothing.
func (m *MPB) ReadLinesInto(dst []byte, line0, n int, t0 sim.Time, stride sim.Duration) {
	copy(dst[:n*scc.CacheLine], m.SettledLines(line0, n, t0, stride))
}

// SettledLines is ReadLinesInto without the copy: the n lines as read at
// those times, in the MPB's own storage. The slice is valid, and must be
// left unmodified, until the MPB's next read or write.
func (m *MPB) SettledLines(line0, n int, t0 sim.Time, stride sim.Duration) []byte {
	if n <= 0 {
		panic(fmt.Sprintf("mem: MPB[%d] non-positive read extent %d", m.owner, n))
	}
	m.checkLine(line0)
	m.checkLine(line0 + n - 1)
	// Settling a line only writes that line's bytes, so settling the
	// whole range first and reading once is identical to interleaving.
	m.settleRange(line0, n, t0, stride)
	return m.data[line0*scc.CacheLine : (line0+n)*scc.CacheLine]
}

// settleRange folds pending writes visible to a bulk read of n lines
// starting at line0, where line line0+i is read at t0+i·stride: the
// per-extent equivalent of calling settle once per line, scanning the
// pending list once instead of once per line. Per line, folding stops
// at the first pending write in the future (tracked in the reusable
// blocked bitmap, as in sweepPending), preserving each line's
// issue-order prefix rule; the outcome is identical to the per-line
// loop. The scan stops as soon as every unapplied (extent, line) pair
// in the range has been disposed of — folded or found in the future.
func (m *MPB) settleRange(line0, n int, t0 sim.Time, stride sim.Duration) {
	if tMax := t0 + sim.Duration(n-1)*stride; tMax > m.settledAt {
		m.settledAt = tMax
	}
	todo := 0
	for i := line0; i < line0+n; i++ {
		if w := m.pendCnt[i]; w&queueTag != 0 {
			m.Stats.Reads++
			m.Stats.Visited += m.foldQueue(i, t0+sim.Duration(i-line0)*stride)
		} else {
			todo += int(w)
		}
	}
	if todo == 0 {
		return
	}
	m.Stats.Reads++
	blocked := m.sweepBlocked
	clear(blocked)
	completed := false
	for _, x := range m.pending {
		m.Stats.Visited++
		first, end := int(x.line0), int(x.line0+x.n)
		lo, hi := first, end
		if lo < line0 {
			lo = line0
		}
		if hi > line0+n {
			hi = line0 + n
		}
		if lo >= hi {
			continue
		}
		// Whole-extent fast path: an untouched extent fully inside the
		// read range whose every line is visible folds with one memmove.
		// eff(line)−t(line) is affine in line, so checking both ends
		// covers the middle; the blocked bits guard earlier future
		// writes to any of its lines.
		if lo == first && hi == end && x.nApplied == 0 &&
			rangeClear(blocked, lo, hi) &&
			x.eff0 <= t0+sim.Duration(lo-line0)*stride &&
			x.effAt(hi-1) <= t0+sim.Duration(hi-1-line0)*stride {
			copy(m.data[lo*scc.CacheLine:], x.data)
			for i := range x.applied {
				x.applied[i] = ^uint64(0)
			}
			x.nApplied = x.n
			for line := lo; line < hi; line++ {
				m.dirty[line/64] |= 1 << (line % 64)
				m.pendCnt[line]--
			}
			todo -= int(x.n)
			completed = true
			if todo == 0 {
				break
			}
			continue
		}
		for line := lo; line < hi; line++ {
			if x.isApplied(line) {
				continue
			}
			todo--
			if blocked[line/64]&(1<<(line%64)) != 0 {
				continue
			}
			if x.effAt(line) > t0+sim.Duration(line-line0)*stride {
				blocked[line/64] |= 1 << (line % 64)
				continue
			}
			m.fold(x, line)
			completed = completed || x.nApplied == x.n
		}
		if todo == 0 {
			break
		}
	}
	if completed {
		m.compact()
	}
}

// WriteLine stores 32 bytes into a line with effective time eff and
// signals any process blocked on that line. src must hold ≥32 bytes.
func (m *MPB) WriteLine(line int, src []byte, eff sim.Time) {
	m.WriteLines(line, src, 1, eff, 0)
}

// WriteLines stores n consecutive lines starting at line0, where line
// line0+i becomes visible at eff0+i·stride, and signals each line's
// watchers at its own effective time. src must hold ≥ n×32 bytes and is
// copied, so callers may reuse their buffer. The whole transfer is
// carried by a single pending record (recycled across operations), so the
// steady-state cost is O(1) allocations regardless of n.
func (m *MPB) WriteLines(line0 int, src []byte, n int, eff0 sim.Time, stride sim.Duration) {
	m.write(line0, src, n, eff0, stride, false)
}

// Stage returns a buffer for n lines of payload from the slab the MPB
// shares, its contents unspecified: an RMA op reads its payload into it
// whole when it is issued and hands it to WriteStaged (or Release) when
// it completes.
func (m *MPB) Stage(n int) []byte { return m.slab.bufs.Buffer(n * scc.CacheLine) }

// Release gives back a buffer from Stage that is not written.
func (m *MPB) Release(buf []byte) { m.slab.bufs.Give(buf) }

// WriteStaged is WriteLines over a buffer from Stage, which it takes
// over: the record carrying a multi-line write holds it until the write
// has folded, instead of a copy.
func (m *MPB) WriteStaged(line0 int, buf []byte, n int, eff0 sim.Time, stride sim.Duration) {
	m.write(line0, buf, n, eff0, stride, true)
}

// write is WriteLines and WriteStaged; staged says src is a Stage buffer
// to take over.
func (m *MPB) write(line0 int, src []byte, n int, eff0 sim.Time, stride sim.Duration, staged bool) {
	if n <= 0 {
		panic(fmt.Sprintf("mem: MPB[%d] non-positive write extent %d", m.owner, n))
	}
	if stride < 0 {
		panic(fmt.Sprintf("mem: MPB[%d] negative extent stride %d", m.owner, stride))
	}
	m.checkLine(line0)
	m.checkLine(line0 + n - 1)
	if w := m.pendCnt[line0]; n == 1 && (w == 0 || w&queueTag != 0) {
		m.Stats.Queued++
		m.enqueue(line0, src, eff0)
	} else {
		m.Stats.Listed++
		for i := line0; i < line0+n; i++ {
			if m.pendCnt[i]&queueTag != 0 {
				m.moveToList(i)
			}
		}
		m.listWrite(line0, src, n, eff0, stride, staged)
	}
	if staged && n == 1 {
		m.Release(src) // a single line is copied into its record
	}
	if u := m.unfolded(); u >= m.sweepAt && u >= sweepMinPending {
		m.sweepPending()
	}
	// One coalesced fan-out for the whole extent: the engine stops the
	// scan as soon as no process is blocked, so a wide bulk write costs
	// O(1) instead of n watcher-map probes.
	m.eng.SignalRange(m.owner, line0, n, eff0, stride)
}

// enqueue appends a single-line write to its line's queue.
func (m *MPB) enqueue(line int, src []byte, eff sim.Time) {
	id := m.slab.newFlag()
	flags := m.slab.flags // taken after newFlag, which may have moved it
	flags[id-1].eff, flags[id-1].next = eff, 0
	copy(flags[id-1].line[:], src[:scc.CacheLine])
	if w := m.pendCnt[line]; w == 0 {
		m.pendCnt[line] = queueTag | id
	} else {
		tail := w &^ queueTag
		for flags[tail-1].next != 0 {
			tail = flags[tail-1].next
		}
		flags[tail-1].next = id
	}
	m.queued++
}

// moveToList turns a line's queued writes into single-line extents at the
// end of the pending list, in order, ahead of a multi-line write about to
// cover the line; no list extent has an unfolded write to a queued line.
func (m *MPB) moveToList(line int) {
	flags := m.slab.flags
	head := m.pendCnt[line] &^ queueTag
	m.pendCnt[line] = 0
	last := head
	for id := head; id != 0; id = flags[id-1].next {
		m.listWrite(line, flags[id-1].line[:], 1, flags[id-1].eff, 0, false)
		m.queued--
		m.Stats.Moves++
		last = id
	}
	m.slab.freeFlags(head, last)
}

// listWrite appends an n-line write to the pending list. A multi-line
// write's record carries src itself if it is staged, a copy in a buffer
// of the slab's else; a single line is copied into the record.
func (m *MPB) listWrite(line0 int, src []byte, n int, eff0 sim.Time, stride sim.Duration, staged bool) {
	x := m.newExtent(n)
	x.line0 = int32(line0)
	x.eff0 = eff0
	x.stride = stride
	switch {
	case n == 1:
		x.data = x.line[:]
		copy(x.data, src[:scc.CacheLine])
	case staged:
		x.data = src[:n*scc.CacheLine]
	default:
		x.data = m.Stage(n)
		copy(x.data, src[:n*scc.CacheLine])
	}
	m.pending = m.slab.lists.Append(m.pending, x)
	for i := line0; i < line0+n; i++ {
		m.pendCnt[i]++
	}
}

// PeekU64 reads the first 8 bytes of a line as a little-endian uint64 as
// visible at time t, without copying the whole line. Used by flag polls.
func (m *MPB) PeekU64(line int, t sim.Time) uint64 {
	m.checkLine(line)
	m.settle(line, t)
	off := line * scc.CacheLine
	return binary.LittleEndian.Uint64(m.data[off:])
}

// peekU64At evaluates what PeekU64 would return at time t WITHOUT
// settling state — used inside wait predicates, which may be evaluated
// while earlier-time reads are still possible. It scans the line's
// unfolded writes by settle's rule: the value is that of the last write
// before the first one still in the future at t; blocked reports that
// there is one, and next its effective time — the next moment the visible
// value can change. It allocates nothing (it runs on every Signal
// delivered to a waiting process).
func (m *MPB) peekU64At(line int, t sim.Time) (v uint64, next sim.Time, blocked bool) {
	v = binary.LittleEndian.Uint64(m.data[line*scc.CacheLine:])
	left := m.pendCnt[line]
	if left == 0 {
		return v, 0, false
	}
	m.Stats.Reads++
	if left&queueTag != 0 {
		flags := m.slab.flags
		for id := left &^ queueTag; id != 0; id = flags[id-1].next {
			m.Stats.Visited++
			if flags[id-1].eff > t {
				return v, flags[id-1].eff, true
			}
			v = binary.LittleEndian.Uint64(flags[id-1].line[:])
		}
		return v, 0, false
	}
	for _, x := range m.pending {
		m.Stats.Visited++
		if !x.covers(line) || x.isApplied(line) {
			continue
		}
		if eff := x.effAt(line); eff > t {
			return v, eff, true
		}
		v = binary.LittleEndian.Uint64(x.lineData(line))
		if left--; left == 0 {
			break
		}
	}
	return v, 0, false
}

// ProbeU64 evaluates what PeekU64 would return at time t WITHOUT settling
// pending writes into the backing store — the read has no side effects at
// all, so it is safe to issue from a core that polls a flag opportunistically
// (the non-blocking collectives' Test/Progress path) while lower-clock
// processes may still be about to issue earlier-time writes. It allocates
// nothing.
func (m *MPB) ProbeU64(line int, t sim.Time) uint64 {
	m.checkLine(line)
	v, _, _ := m.peekU64At(line, t)
	return v
}

// satisfiedAt returns the earliest time ≥ now at which the line's leading
// uint64 satisfies a flag wait for val (scc.FlagHolds), considering the
// settled state and the line's unfolded writes: it looks at now and then
// at each later moment the visible value changes, in time order. ok is
// false if no current or pending state satisfies it.
func (m *MPB) satisfiedAt(line int, now sim.Time, val uint64) (sim.Time, bool) {
	for t := now; ; {
		v, next, blocked := m.peekU64At(line, t)
		if scc.FlagHolds(v, val) {
			return t, true
		}
		if !blocked {
			return 0, false
		}
		t = next
	}
}

// WaitU64GE blocks process p until the line's leading uint64 satisfies
// a flag wait for val (scc.FlagHolds: same high 32 bits, ≥), and
// returns with p's clock at (no earlier than) the effective time of the
// write that satisfied it. It is the simulator's flag-poll primitive for
// a blocking body: the process sleeps instead of burning virtual time
// spinning — matching the paper's assumption that no time elapses
// between a flag being set and observed, up to the final poll read the
// caller charges separately. The whole path is closure-free: the wait
// value rides in the MPB's embedded wait record. (rma's flag waits run
// the same loop as frame steps — see wait_inline.go.)
func (m *MPB) WaitU64GE(p *sim.Proc, line int, val uint64) {
	m.checkLine(line)
	key := m.watchKey(line)
	for {
		if te, ok := m.satisfiedAt(line, p.Now(), val); ok {
			p.AdvanceTo(te)
			return
		}
		w := &m.wait
		if w.active {
			// A second process is already parked on this MPB through the
			// embedded record (not a path the RCCE layers take); fall
			// back to a one-shot condition.
			p.Block(key, func() bool {
				_, ok := m.satisfiedAt(line, p.Now(), val)
				return ok
			})
			continue
		}
		w.m, w.p, w.line, w.val = m, p, line, val
		w.active = true
		p.BlockCond(key, w)
		w.active = false
	}
}

// Reset returns the MPB to its freshly constructed state — zeroed lines,
// no pending writes, idle port, empty access history — while keeping
// every warm buffer: extent records move to the free list, queued writes
// back to the slab's arena, payload buffers back to the slab, and the
// access ledger keeps its ring and accessor table, so a pooled chip's
// next simulation allocates nothing here.
func (m *MPB) Reset() {
	for line, w := range m.pendCnt {
		if w&queueTag != 0 {
			m.foldQueue(line, math.MaxInt64) // frees the queue; the bytes are zeroed below
		}
		m.pendCnt[line] = 0
	}
	for w, mask := range m.dirty {
		for mask != 0 {
			line := w*64 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			off := line * scc.CacheLine
			clear(m.data[off : off+scc.CacheLine])
		}
		m.dirty[w] = 0
	}
	for i, x := range m.pending {
		m.recycle(x)
		m.pending[i] = nil
	}
	m.pending = m.pending[:0]
	m.Stats = PendingStats{}
	m.settledAt = 0
	m.sweepAt = 0
	m.Port.Reset()
	m.accesses = portLedger{ring: m.accesses.ring, live: m.accesses.live[:0]}
	m.wait = u64Wait{}
}
