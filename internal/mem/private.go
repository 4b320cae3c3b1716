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
// Storage grows on demand in pages so large broadcast payloads (up to
// 1 MiB per the paper's Figure 8b) don't force a full-size allocation on
// every core of the chip.
type Private struct {
	owner int
	// pages is indexed by page number (nil data = never written, reads
	// as zeros). A flat slice keeps the per-op page lookup off the map
	// hash path. It starts on firstPages, which covers a 64 KiB
	// footprint with no allocation beyond the data pages themselves, and
	// a write beyond that moves it to the heap in one step (see slot).
	pages      []pageSlot
	firstPages [8]pageSlot
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

// pageBytes is the demand-allocation granularity. 8 KiB keeps the
// zero-fill cost of a fresh chip proportional to the bytes actually
// touched (a broadcast payload staging area is a few KiB per core), which
// matters because harness sweeps construct thousands of chips.
const pageBytes = 8 * 1024

// page is exactly pageBytes — one byte more would land in the 9472-byte
// size class — so the dirty mark lives in its slot.
type page [pageBytes]byte

type pageSlot struct {
	data *page
	// dirty marks the page as written since construction or the last
	// Reset, so Reset zeroes only the bytes a run actually touched
	// instead of every page ever allocated (a pooled chip accumulates
	// pages from all its past runs).
	dirty bool
}

// NewPrivate creates core owner's private memory. A chip holds its
// cores' memories by value and runs Init on each.
func NewPrivate(owner int) *Private {
	p := new(Private)
	p.Init(owner)
	return p
}

// Init makes p core owner's (empty) private memory in place. p points
// into itself and must not be copied afterwards.
func (p *Private) Init(owner int) {
	*p = Private{owner: owner}
	p.pages = p.firstPages[:0]
}

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
// to a far page costs one allocation of the size it needs.
func (p *Private) slot(pg int) *pageSlot {
	if pg >= len(p.pages) {
		p.pages = growTo(p.pages, pg+1, 0)
	}
	return &p.pages[pg]
}

// growTo extends s, which never shrinks, to n elements (n > len(s)), the
// new ones zero, reallocating at most once: to at least double the old
// capacity and at least floor elements. (slices.Grow would do, but
// allocates a temporary of the same size when built without
// optimisation, as under -race.)
func growTo[T any](s []T, n, floor int) []T {
	if n > cap(s) {
		s = append(make([]T, 0, max(n, 2*cap(s), floor)), s...)
	}
	return s[:n]
}

// Read copies n bytes starting at addr into dst.
func (p *Private) Read(dst []byte, addr, n int) {
	p.check(addr, n)
	for n > 0 {
		pg, off := addr/pageBytes, addr%pageBytes
		c := pageBytes - off
		if c > n {
			c = n
		}
		var pp *page
		if pg < len(p.pages) {
			pp = p.pages[pg].data
		}
		if pp != nil {
			copy(dst[:c], pp[off:off+c])
		} else {
			for i := 0; i < c; i++ {
				dst[i] = 0
			}
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
		pg, off := addr/pageBytes, addr%pageBytes
		pp := p.slot(pg)
		if pp.data == nil {
			pp.data = new(page)
		}
		pp.dirty = true
		c := copy(pp.data[off:], src)
		src = src[c:]
		addr += c
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
	// pages is indexed by residency-page number and extended like
	// Private.pages; its first allocation covers a 64 KiB footprint.
	pages []cachePage
	n     int
}

// cacheLinesPerPage is the number of cache lines covered by one residency
// bitmap page (mirrors Private's pageBytes granularity).
const cacheLinesPerPage = pageBytes / scc.CacheLine

type cachePage struct {
	bits [cacheLinesPerPage / 64]uint64
}

// NewCache creates a cache model; when enabled is false every lookup
// misses, which is the configuration used for OC-Bcast-only studies
// (OC-Bcast gets no benefit from it either way — see DESIGN.md §4.3).
func NewCache(enabled bool) *Cache {
	c := new(Cache)
	c.Init(enabled)
	return c
}

// Init makes c an empty cache model in place.
func (c *Cache) Init(enabled bool) { *c = Cache{enabled: enabled} }

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
		c.pages = growTo(c.pages, i+1, 8) // first allocation: 64 KiB of addresses
	}
	return &c.pages[i]
}

// Touch marks the cache line containing addr as resident.
func (c *Cache) Touch(addr int) {
	c.Hit(addr)
}

// TouchRange marks the n consecutive cache lines starting at addr as
// resident — equivalent to n Touch calls, but it holds each residency
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

// Reset zeroes the memory while keeping the demand-allocated pages: a
// read of a never-written address yields zero either way, so a reset
// memory is indistinguishable from a fresh one, and a pooled chip's
// next simulation reuses the pages instead of faulting them back in.
// Only pages written since the last Reset are zeroed (the rest are
// already all-zero), so the cost scales with the run's footprint, not
// the chip's high-water mark.
func (p *Private) Reset() {
	for i := range p.pages {
		if pp := &p.pages[i]; pp.dirty {
			*pp.data = page{}
			pp.dirty = false
		}
	}
}
