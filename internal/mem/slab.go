package mem

import (
	"fmt"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/scc"
)

// Slab is the storage the MPBs of one chip share, so that building a
// chip and its first traffic allocate per chip, not per core. It has two
// parts. The fixed part is sized at construction and carved into equal
// per-MPB windows by MPB.Init: every line's bytes, every line's pending
// word, and the dirty and blocked bitmaps. The demand part hands out,
// from blocks allocated as the traffic asks for them, what an MPB takes
// on first use — fresh extent records, the first window of its pending
// and free lists, the first ring and accessor table of its port ledger —
// and holds the one arena of queued single-line writes, which every MPB
// draws from and returns to record by record.
// Block sizes follow the number of MPBs sharing the slab and nothing is
// reserved per MPB ahead of its first use, so a chip whose cores write
// little pays little, and only the newest block of a kind is ever partly
// unused. What an MPB has taken it keeps (Reset recycles it in place); a
// list or ring that outgrows its window moves to a heap array of its
// own, by doubling, exactly as a nil slice would.
//
// Every window is capped at its own length (a three-index slice), so an
// append past it can never run into a neighbour's window.
type Slab struct {
	lines int // per MPB
	// share and recBlock size the demand blocks: windows come a block
	// of one per eight MPBs at a time, records recordsPerBlock(mpbs).
	share, recBlock int

	data    []byte   // mpbs × lines × 32 bytes
	pendCnt []uint32 // mpbs × lines (see MPB.pendCnt)
	bitmaps []uint64 // mpbs × 2 × ⌈lines/64⌉: dirty, then blocked

	// flags is the arena of the line queues of every MPB on the chip:
	// record id is flags[id-1] (0 is "none"), flagFree heads the chain of
	// recycled ones. It grows as a slice does, from a record block's size.
	flags    []flagWrite
	flagFree uint32

	recs  block[pendingExtent]
	lists block[*pendingExtent]
	rings block[portAccess]
	lives block[liveAccessor]
}

// First-use capacities taken from the slab, in elements. A list window
// holds an MPB's pending (or recycled) extents of one OC-Bcast chunk
// round without regrowth; a ring and accessor table fit an OC-Bcast
// parent's port (k = 7 children, a few accesses each per window).
const (
	listWindow = 16
	ringWindow = 32
	liveWindow = 8
)

// block hands out equal windows of T from the unissued tail of its
// current allocation, and allocates the next one when that is used up.
type block[T any] struct{ tail []T }

// take returns a zeroed window of k elements, allocating a block of
// `windows` of them when the current one is used up.
func (b *block[T]) take(k, windows int) []T {
	if len(b.tail) < k {
		b.tail = make([]T, k*windows)
	}
	w := b.tail[:k:k]
	b.tail = b.tail[k:]
	return w
}

// NewSlab creates the storage for `mpbs` MPBs of `lines` cache lines
// each; MPB.Init takes them from it, one window per MPB.
func NewSlab(mpbs, lines int) *Slab {
	if lines < 1 {
		panic(fmt.Sprintf("mem: MPB capacity %d lines must be positive", lines))
	}
	words := (lines + 63) / 64
	return &Slab{
		lines:    lines,
		share:    max(mpbs/8, 1),
		recBlock: recordsPerBlock(mpbs),
		data:     make([]byte, mpbs*lines*scc.CacheLine),
		pendCnt:  make([]uint32, mpbs*lines),
		bitmaps:  make([]uint64, mpbs*2*words),
	}
}

// record returns a fresh extent record; they come a block at a time.
func (s *Slab) record() *pendingExtent {
	return &s.recs.take(1, s.recBlock)[0]
}

// newFlag returns the id of a flagWrite for the caller to fill: a
// recycled one, or the next of the arena, which may move to make room.
func (s *Slab) newFlag() uint32 {
	if id := s.flagFree; id != 0 {
		s.flagFree = s.flags[id-1].next
		return id
	}
	if s.flags == nil {
		s.flags = make([]flagWrite, 0, alloc.Fill[flagWrite](s.recBlock))
	}
	s.flags = append(s.flags, flagWrite{})
	return uint32(len(s.flags))
}

// freeFlags recycles the chain of records running from head to last.
func (s *Slab) freeFlags(head, last uint32) {
	s.flags[last-1].next, s.flagFree = s.flagFree, head
}

// recordsPerBlock sizes a record block: at least one record per MPB and
// 2 KiB, filled up to what malloc charges for it (alloc.Fill) — 48
// records would be charged as 56.
func recordsPerBlock(mpbs int) int {
	return alloc.Fill[pendingExtent](max(mpbs, 2048/int(unsafe.Sizeof(pendingExtent{}))))
}

// list returns an empty extent list with listWindow slots behind it.
func (s *Slab) list() []*pendingExtent {
	return s.lists.take(listWindow, s.share)[:0]
}

// ring and live return a port ledger's first ring and (empty) accessor
// table.
func (s *Slab) ring() []portAccess { return s.rings.take(ringWindow, s.share) }

func (s *Slab) live() []liveAccessor { return s.lives.take(liveWindow, s.share)[:0] }
