package mem

import (
	"fmt"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/scc"
)

// Slab is the storage one chip's MPBs, private memories and cache models
// share, so that building a chip and running it allocate per chip, not
// per core. It has two parts. The fixed part is sized at construction
// and carved into equal per-MPB windows by MPB.Init: every line's bytes,
// every line's pending word, and the dirty and blocked bitmaps. The
// demand part hands out, from blocks allocated as the traffic asks for
// them, everything a core's state takes or grows as it runs:
//   - extent records and the MPBs' pending and free lists;
//   - the port ledgers' rings and accessor tables;
//   - payload buffers: the lines an RMA op reads at issue and writes
//     later (Stage), which the extent record carrying the write then
//     holds until it folds, and a two-sided combine's operands;
//   - private-memory pages (the page pool, which holds each distinct
//     page once for the chip, see pagePool), page tables and cache
//     residency tables;
//   - the one arena of queued single-line writes, which every MPB draws
//     from and returns to record by record.
//
// Block sizes follow the number of MPBs sharing the slab — page and
// residency tables a block of one per MPB at a time, pages one per MPB
// and then twice the block before, the rest one per eight (lists and
// ledger tables at least four, alloc.Share) — and
// nothing is reserved per MPB ahead of its first use, so a chip whose
// cores write little pays little, and only the newest block of a kind (of
// a capacity class, for the tables and buffers: alloc.Arena) is ever
// partly unused. A table that outgrows its window takes one of twice the
// capacity and gives the old one back for the next taker; a payload
// buffer goes back when its write has folded. What a core's state has
// taken otherwise it keeps (Reset recycles it in place).
type Slab struct {
	lines int // per MPB
	// recBlock sizes the record blocks: recordsPerBlock(mpbs).
	recBlock int

	data    []byte   // mpbs × lines × 32 bytes
	pendCnt []uint32 // mpbs × lines (see MPB.pendCnt)
	bitmaps []uint64 // mpbs × 2 × ⌈lines/64⌉: dirty, then blocked

	// flags is the arena of the line queues of every MPB on the chip:
	// record id is flags[id-1] (0 is "none"), flagFree heads the chain of
	// recycled ones. It grows as a slice does, from a record block's size.
	flags    []flagWrite
	flagFree uint32

	recs block[pendingExtent]
	pool pagePool

	lists alloc.Arena[*pendingExtent]
	rings alloc.Arena[portAccess]
	lives alloc.Arena[liveAccessor]
	bufs  alloc.Arena[byte]
	slots alloc.Arena[uint32]
	resid alloc.Arena[cachePage]
}

// First-use capacities taken from the slab, in elements. A list window
// holds an MPB's pending (or recycled) extents of one OC-Bcast chunk
// round without regrowth; a ring and accessor table fit an OC-Bcast
// parent's port (k = 7 children, a few accesses each per window); a
// residency table, like a page table (slotWindow), covers a 64 KiB
// footprint.
const (
	listWindow  = 16
	ringWindow  = 32
	liveWindow  = 8
	residWindow = 8
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

// NewSlab creates the storage for `mpbs` cores' MPBs of `lines` cache
// lines each; MPB.Init takes them from it, one window per MPB, and the
// cores' private memories and cache models (Private.Init, Cache.Init)
// draw on its demand part.
func NewSlab(mpbs, lines int) *Slab {
	if lines < 1 {
		panic(fmt.Sprintf("mem: MPB capacity %d lines must be positive", lines))
	}
	words := (lines + 63) / 64
	share := alloc.Share(mpbs)
	return &Slab{
		lines:    lines,
		recBlock: recordsPerBlock(mpbs),
		pool:     pagePool{perBlock: uint32(mpbs)},
		data:     make([]byte, mpbs*lines*scc.CacheLine),
		pendCnt:  make([]uint32, mpbs*lines),
		bitmaps:  make([]uint64, mpbs*2*words),
		lists:    alloc.Arena[*pendingExtent]{Per: share, Min: listWindow},
		rings:    alloc.Arena[portAccess]{Per: share, Min: ringWindow},
		lives:    alloc.Arena[liveAccessor]{Per: share, Min: liveWindow},
		bufs:     alloc.Arena[byte]{Per: max(mpbs/8, 1)},
		slots:    alloc.Arena[uint32]{Per: mpbs, Min: slotWindow},
		resid:    alloc.Arena[cachePage]{Per: mpbs, Min: residWindow},
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
