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
	// pages is indexed by page number and grown on demand (nil data =
	// never written, reads as zeros). A flat slice keeps the per-op page
	// lookup off the map hash path.
	pages []pageSlot
	// dirty lists the page indices written since construction or the
	// last Reset, so Reset zeroes only the bytes a run actually touched
	// instead of every page ever allocated (a pooled chip accumulates
	// pages from all its past runs).
	dirty []int
}

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
	// dirty marks the page as written since the last Reset (it is then
	// listed in Private.dirty exactly once).
	dirty bool
}

// NewPrivate creates core owner's private memory.
func NewPrivate(owner int) *Private {
	return &Private{owner: owner}
}

// Owner reports the core id owning this memory.
func (p *Private) Owner() int { return p.owner }

func (p *Private) check(addr, n int) {
	if addr < 0 || n < 0 {
		panic(fmt.Sprintf("mem: private[%d] bad range addr=%d n=%d", p.owner, addr, n))
	}
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
		for len(p.pages) <= pg {
			p.pages = append(p.pages, pageSlot{})
		}
		pp := &p.pages[pg]
		if pp.data == nil {
			pp.data = new(page)
		}
		if !pp.dirty {
			pp.dirty = true
			p.dirty = append(p.dirty, pg)
		}
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
// Residency is a bitmap per address page (one word per 64 lines), so
// marking a line on the RMA hot path allocates at most once per page
// instead of once per map insert.
type Cache struct {
	enabled bool
	// pages is indexed by residency-page number, grown on demand like
	// Private.pages.
	pages []*cachePage
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
	return &Cache{enabled: enabled}
}

func (c *Cache) page(line int) *cachePage {
	i := line / cacheLinesPerPage
	for len(c.pages) <= i {
		c.pages = append(c.pages, nil)
	}
	pg := c.pages[i]
	if pg == nil {
		pg = &cachePage{}
		c.pages[i] = pg
	}
	return pg
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
	for _, pg := range c.pages {
		if pg != nil {
			pg.bits = [cacheLinesPerPage / 64]uint64{}
		}
	}
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
	for _, pg := range p.dirty {
		pp := &p.pages[pg]
		*pp.data = page{}
		pp.dirty = false
	}
	p.dirty = p.dirty[:0]
}
