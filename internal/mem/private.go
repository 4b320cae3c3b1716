package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/scc"
)

// Private is one core's private off-chip memory. The SCC gives each core
// its own DDR3 rank through one of four memory controllers; with the
// paper's no-shared-memory configuration there is no cross-core
// interference on private memory (§3.3), so Private needs no port model.
//
// Storage grows on demand in pages, and the pages are shared by content:
// a memory is a table of page ids, and the pages are values the slab's
// pool holds once per chip however many cores point at them (see
// Slab). The paper's collectives end with the same bytes at the same
// address on every core, so a broadcast's payload is stored once, not
// once per core; a page whose content is all zero is no page at all.
type Private struct {
	owner int
	slab  *Slab
	// pages is indexed by page number and holds ids of the slab's pages
	// (0: never written, or all zero — reads as zeros). A flat slice of
	// 4-byte ids keeps the page lookup off the map hash path and a table
	// reaching the last page at 2 MiB. Its first window covers a 64 KiB
	// footprint, and a write beyond that moves it to a larger one in one
	// step (see slot).
	pages []uint32
}

// PrivateBytes is the size of one core's private memory: addresses run
// from 0 to PrivateBytes, and an access that reaches past it panics.
// 1 GiB is of the order of a core's share of the real chip's DRAM and
// far more than anything in this repository addresses (a 1 MiB broadcast
// repeated at fresh offsets stays under 16 MiB), while it keeps a stray
// address — a byte count passed for a line index, an uninitialised
// offset — from silently growing the page table without bound: at the
// limit the table is 2 MiB and a cache model's residency bitmap 4 MiB.
const PrivateBytes = 1 << 30

// PageBytes is the granularity private memory is allocated and shared
// at. A broadcast's chunks land at line offsets that split pages, and
// every page a chunk ends inside passes through a partly written state
// that the cores further down the tree have not reached yet, so smaller
// pages keep fewer bytes in flight (OC-Bcast's benchmark payload of 1 026
// lines peaks at 12 distinct 8 KiB pages, 96 KiB, and at 40 of 1 KiB).
// 2 KiB is the smallest page whose table of 4-byte ids still reaches the
// last address in 2 MiB; a compare, a copy-on-write or a zero fill costs
// at most one page per page a write touches.
const PageBytes = 2 << 10

// page is exactly PageBytes; what the pool knows of a page is beside it,
// in its pageRec.
type page [PageBytes]byte

// slotWindow is the first capacity of a page table, in pages: a 64 KiB
// footprint.
const slotWindow = 64 << 10 / PageBytes

// NewPrivate creates core owner's private memory over a slab of its own.
// A chip holds its cores' memories by value and runs Init on each over
// one shared slab.
func NewPrivate(owner int) *Private {
	p := new(Private)
	p.Init(owner, NewSlab(1, 1))
	return p
}

// Init makes p core owner's (empty) private memory in place, sharing the
// pages and drawing the page table of slab s.
func (p *Private) Init(owner int, s *Slab) { *p = Private{owner: owner, slab: s} }

// Owner reports the core id owning this memory.
func (p *Private) Owner() int { return p.owner }

func (p *Private) check(addr, n int) {
	if addr < 0 || n < 0 {
		panic(fmt.Sprintf("mem: private[%d] bad range addr=%d n=%d", p.owner, addr, n))
	}
	if addr > PrivateBytes || n > PrivateBytes-addr {
		panic(fmt.Sprintf("mem: private[%d] access of %d bytes at address %d reaches past the %d-byte private memory",
			p.owner, n, addr, PrivateBytes))
	}
}

// slot returns page pg's slot for writing, extending the table to reach
// it in one step: to pg+1 slots, or double the current capacity if that
// is more, so a sequential fill stays amortised O(1) per page and a jump
// to a far page takes one window of the size it needs.
func (p *Private) slot(pg int) *uint32 {
	if pg >= len(p.pages) {
		p.pages = p.slab.slots.Grow(p.pages, pg+1)
	}
	return &p.pages[pg]
}

// id returns the id of page pg (0: reads as zeros).
func (p *Private) id(pg int) uint32 {
	if pg < len(p.pages) {
		return p.pages[pg]
	}
	return 0
}

// Read copies n bytes starting at addr into dst.
func (p *Private) Read(dst []byte, addr, n int) {
	p.check(addr, n)
	for n > 0 {
		pg, off := addr/PageBytes, addr%PageBytes
		c := min(PageBytes-off, n)
		if id := p.id(pg); id != 0 {
			copy(dst[:c], p.slab.rec(id).data[off:off+c])
		} else {
			clear(dst[:c])
		}
		dst = dst[c:]
		addr += c
		n -= c
	}
}

// Write copies len(src) bytes from src into memory at addr.
func (p *Private) Write(addr int, src []byte) {
	p.check(addr, len(src))
	for len(src) > 0 {
		pg, off := addr/PageBytes, addr%PageBytes
		c := min(PageBytes-off, len(src))
		p.writePage(pg, off, src[:c])
		src = src[c:]
		addr += c
	}
}

// writePage writes src at byte off of page pg. A transition the memo
// remembers settles it (see pagePool). Otherwise the page's new content
// hash follows from the words the write covers (from src alone when it
// covers the page); then, in order: content all zero drops the page, a
// live page of equal content — found by hash, confirmed byte for byte —
// is shared, a page this memory holds alone is written in place, and
// anything else gets a page of its own, which the memo remembers.
func (p *Private) writePage(pg, off int, src []byte) {
	s, id := p.slab, p.id(pg)
	st := &s.pool.stats
	st.Writes++
	st.Written += len(src)
	old, sum, ver := &zeroPage, uint64(0), uint32(0)
	var r *pageRec
	if id != 0 {
		r = s.rec(id)
		old, sum, ver = &r.data, r.sum, r.ver
	} else if isZero(src) {
		return
	}
	if q := s.recall(id, ver, off, src); q != 0 {
		st.Hits++
		p.repoint(pg, id, q)
		return
	}
	st.Hashed += len(src)
	if len(src) == PageBytes {
		sum = hashWords(src, 0)
	} else {
		sum += hashDelta(old, off, src)
	}
	end := off + len(src)
	switch q := s.lookup(sum); {
	case sum == 0 && isZero(src) && isZero(old[:off]) && isZero(old[end:]):
		p.repoint(pg, id, 0)
	case q != 0 && s.holds(q, old, off, src):
		p.repoint(pg, id, q)
		s.remember(id, ver, off, len(src), q)
	case r != nil && r.ref == 1:
		// No other slot holds the old version: the transition is
		// nobody else's to repeat.
		copy(old[off:], src)
		s.rehash(id, r, sum)
	default:
		q, nr := s.newPage(sum)
		copy(nr.data[:off], old[:off])
		copy(nr.data[off:end], src)
		copy(nr.data[end:], old[end:])
		p.repoint(pg, id, q)
		s.remember(id, ver, off, len(src), q)
	}
}

// repoint points page pg's slot, which points at page id, at page q
// instead (0: no page), moving a reference from id to q.
func (p *Private) repoint(pg int, id, q uint32) {
	if q == id {
		return
	}
	if q != 0 {
		p.slab.rec(q).ref++
	}
	if id != 0 {
		p.slab.release(id)
	}
	*p.slot(pg) = q
}

// Reset empties the memory: it drops its references to the slab's pages
// (a page no memory points at any more goes back to the pool) and keeps
// its page table, so a reset memory is indistinguishable from a fresh one
// and a pooled chip's next simulation reuses the table and the pages.
func (p *Private) Reset() {
	for i, id := range p.pages {
		if id != 0 {
			p.slab.release(id)
			p.pages[i] = 0
		}
	}
}

// Cache models the effect the paper leans on in Formula 14: once a core
// has touched a private-memory cache line, re-reading it costs
// (approximately) nothing because it hits the P54C's L1. The model tracks
// touched line addresses per core; capacity is approximated as unbounded
// within an experiment iteration because the paper's methodology already
// defeats cross-iteration reuse by broadcasting from fresh offsets.
//
// Residency is a bitmap per address page (one word per 64 lines), the
// pages held by value in one flat table indexed by page number, so
// marking a line on the RMA hot path allocates only when it reaches past
// every address marked before.
type Cache struct {
	enabled bool
	slab    *Slab
	// pages is indexed by residency-page number and extended like
	// Private.pages, from the same slab.
	pages []cachePage
	n     int
}

// cacheLinesPerPage is the number of cache lines covered by one residency
// bitmap page: 8 KiB of addresses, a 32-byte page of bits.
const cacheLinesPerPage = 256

type cachePage struct {
	bits [cacheLinesPerPage / 64]uint64
}

// Init makes c an empty cache model in place, drawing its residency
// table from slab s. When enabled is false every lookup misses, which is
// the configuration used for OC-Bcast-only studies (OC-Bcast gets no
// benefit from it either way: only its root reads private memory, each
// payload line once, while the two-sided baselines re-read the chunks
// they have just received to forward them).
func (c *Cache) Init(enabled bool, s *Slab) { *c = Cache{enabled: enabled, slab: s} }

// page returns the residency page covering a line, extending the table
// to reach it in one step. Lines past the private memory's end panic,
// like the Private access they would accompany.
func (c *Cache) page(line int) *cachePage {
	i := line / cacheLinesPerPage
	if i >= len(c.pages) {
		if line >= PrivateBytes/scc.CacheLine {
			panic(fmt.Sprintf("mem: cache line at address %d is past the %d-byte private memory",
				line*scc.CacheLine, PrivateBytes))
		}
		c.pages = c.slab.resid.Grow(c.pages, i+1)
	}
	return &c.pages[i]
}

// TouchRange marks the n consecutive cache lines starting at addr as
// resident — equivalent to n Hit calls, but it holds each residency
// page once and sets whole bitmap words, so a bulk RMA op's write
// allocation costs a handful of word ORs instead of n lookups.
func (c *Cache) TouchRange(addr, n int) {
	if !c.enabled || n <= 0 {
		return
	}
	line := addr / scc.CacheLine
	end := line + n
	for line < end {
		pg := c.page(line)
		i := line % cacheLinesPerPage
		span := cacheLinesPerPage - i
		if end-line < span {
			span = end - line
		}
		line += span
		for span > 0 {
			w, b := i/64, i%64
			cnt := 64 - b
			if cnt > span {
				cnt = span
			}
			mask := ^uint64(0) >> (64 - cnt) << b
			old := pg.bits[w]
			pg.bits[w] = old | mask
			c.n += bits.OnesCount64(mask &^ old)
			i += cnt
			span -= cnt
		}
	}
}

// Hit reports whether the line containing addr is resident, and touches it.
func (c *Cache) Hit(addr int) bool {
	if !c.enabled {
		return false
	}
	line := addr / scc.CacheLine
	pg, i := c.page(line), line%cacheLinesPerPage
	if pg.bits[i/64]&(1<<(i%64)) != 0 {
		return true
	}
	pg.bits[i/64] |= 1 << (i % 64)
	c.n++
	return false
}

// Flush empties the cache (used between experiment iterations, mirroring
// the paper's fresh-offset methodology). Pages are kept and cleared so a
// steady-state measurement loop stops allocating.
func (c *Cache) Flush() {
	clear(c.pages)
	c.n = 0
}

// Len reports the number of resident lines (for tests).
func (c *Cache) Len() int { return c.n }
