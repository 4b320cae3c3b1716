package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// pagePool is the part of a Slab that holds a chip's private-memory
// pages. A page is a value: the memories whose tables point at it share
// it and never write it while they do, so each distinct content a chip's
// cores hold is stored once. Pages come from blocks that grow
// geometrically — the first holds one page per MPB, each next one twice
// the one before — and a page no table points at any more is recycled
// before a block hands out a new one. No page is ever zeroed: the writer
// a page is handed to fills all of it.
//
// A lossy table finds a live page by the hash of its content, which each
// page carries and every write keeps up to date from the words it
// covers. A hash only proposes a page; sharing it takes a byte-for-byte
// compare, so a collision costs a missed share and nothing else.
type pagePool struct {
	// perBlock is the first block's page count; block b holds
	// perBlock<<b pages, and page id i (1-based) is the i-th of them in
	// block order.
	perBlock uint32
	blocks   [32][]pageRec
	// taken counts the ids handed out of the blocks; free heads the chain
	// of released ones, linked through pageRec.sum.
	taken, free uint32
	// table indexes live pages by content hash: a hash's high bits pick
	// a set of tableWays entries, newest first, and its low bits tag the
	// entry. It has eight sets per page of the first block (rounded up
	// to a power of two), comes with that block and never grows. An entry whose page was released or
	// rewritten since is stale: lookup skips it and rehash reuses it first.
	table []tableEntry
}

// tableEntry is a table entry: page id, tagged with the low 32 bits of
// the content hash it was indexed under.
type tableEntry struct{ tag, id uint32 }

// tableWays is the size of a table set. Every live page a core will
// still look for needs an entry: an evicted one makes the next core that
// writes its content take a copy, which is indexed and evicts another in
// turn. A 384-core allgather of 256-line blocks has its 1 536 payload
// pages live at once, each wanted until the last core has its block; it
// took 281 000 pages with a direct-mapped table of 2 048 entries, 28 000
// with 1 024 sets of four, 5 200 with 2 048, and 2 000 — as many as an
// index that never evicts — with 4 096, eight per core rounded up.
const tableWays = 4

// pageRec is a page and what the pool knows of it, side by side in a
// block (one allocation per block): its content hash, or the next free
// id while it is free, and the number of page-table slots that point at
// it (0: free).
type pageRec struct {
	data page
	sum  uint64
	ref  uint32
}

// hashMul is the odd constant of the content hash; hashStep is twice it,
// modulo 2⁶⁴.
const hashMul, hashStep = 0x9e3779b97f4a7c15, 0x3c6ef372fe94f82a

// hashWords returns the content-hash terms of the 8-byte words of b, the
// first of them word w0 of its page. Word i contributes
// (w ^ w>>29)·(2i+1)·hashMul, so a zero word contributes nothing (an
// all-zero page hashes to 0), a word that differs always changes the
// sum, and a write changes a page's hash by the terms of the words it
// covers.
func hashWords(b []byte, w0 int) (sum uint64) {
	mul := uint64(2*w0+1) * hashMul
	// Four words a round, on four independent sums.
	var s1, s2, s3 uint64
	for ; len(b) >= 32; b = b[32:] {
		x0, x1 := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
		x2, x3 := binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
		sum += (x0 ^ x0>>29) * mul
		s1 += (x1 ^ x1>>29) * (mul + hashStep)
		s2 += (x2 ^ x2>>29) * (mul + 2*hashStep)
		s3 += (x3 ^ x3>>29) * (mul + 3*hashStep)
		mul += 4 * hashStep
	}
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		sum += (x ^ x>>29) * mul
		mul += hashStep
	}
	return sum + s1 + s2 + s3
}

// hashDelta returns the change to a page's content hash that writing src
// at byte off makes, given its old content. It reads the words the write
// covers, of src and of old, and no others.
func hashDelta(old *page, off int, src []byte) (sum uint64) {
	end := off + len(src)
	lo, hi := off&^7, (end+7)&^7 // the words the write touches
	in0, in1 := (off+7)&^7, end&^7
	if in0 < in1 { // the words it covers whole
		sum = hashWords(src[in0-off:in1-off], in0/8)
	}
	// The partly covered words, at most one at each end: the old word
	// with src's bytes over it.
	for w := lo; w < hi; w += 8 {
		if w >= in0 && w < in1 {
			w = in1 - 8
			continue
		}
		var b [8]byte
		copy(b[:], old[w:w+8])
		copy(b[max(off, w)-w:], src[max(off, w)-off:min(end, w+8)-off])
		sum += hashWords(b[:], w/8)
	}
	return sum - hashWords(old[lo:hi], lo/8)
}

// zeroPage is what an absent page reads as.
var zeroPage page

// isZero reports whether b is all zero.
func isZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// rec returns page id's record.
func (s *Slab) rec(id uint32) *pageRec {
	j := id - 1
	b := bits.Len32(j/s.pool.perBlock+1) - 1
	return &s.pool.blocks[b][j-s.pool.perBlock*(1<<b-1)]
}

// newPage hands out a page — a recycled one, else the next of the blocks
// — with content hash sum, and makes it the table's page for sum. Its
// bytes are whatever they were and no slot points at it yet: the caller
// writes all of them and then points a slot at it.
func (s *Slab) newPage(sum uint64) (uint32, *pageRec) {
	pp := &s.pool
	id := pp.free
	if id != 0 {
		pp.free = uint32(s.rec(id).sum)
	} else {
		pp.taken++
		id = pp.taken
		if b := bits.Len32((id-1)/pp.perBlock+1) - 1; pp.blocks[b] == nil {
			pp.blocks[b] = make([]pageRec, pp.perBlock<<b)
			if b == 0 {
				pp.table = make([]tableEntry, tableWays<<bits.Len32(max(8*pp.perBlock, 16)-1))
			}
		}
	}
	r := s.rec(id)
	s.rehash(id, r, sum)
	return id, r
}

// rehash records page id's new content hash and indexes it under that
// hash.
func (s *Slab) rehash(id uint32, r *pageRec, sum uint64) {
	r.sum = sum
	set := s.set(sum)
	k := tableWays - 1 // the oldest entry, unless one is stale
	for i, e := range set {
		if e.id == 0 || e.id == id || !s.current(e) {
			k = i
			break
		}
	}
	copy(set[1:k+1], set[:k])
	set[0] = tableEntry{uint32(sum), id}
}

// set returns the table set of a content hash.
func (s *Slab) set(sum uint64) []tableEntry {
	t := s.pool.table
	i := (sum * hashMul) >> (64 - bits.Len(uint(len(t)/tableWays-1))) * tableWays
	return t[i : i+tableWays : i+tableWays]
}

// current reports whether e's page is live and still holds a content of
// e's hash.
func (s *Slab) current(e tableEntry) bool {
	r := s.rec(e.id)
	return r.ref != 0 && uint32(r.sum) == e.tag
}

// lookup returns a live page of content hash sum the table holds, or 0.
func (s *Slab) lookup(sum uint64) uint32 {
	if s.pool.table == nil {
		return 0
	}
	for _, e := range s.set(sum) {
		if e.id != 0 && e.tag == uint32(sum) {
			if r := s.rec(e.id); r.ref != 0 && r.sum == sum {
				return e.id
			}
		}
	}
	return 0
}

// holds reports whether page q holds what a page of content old holds
// once src is written at byte off.
func (s *Slab) holds(q uint32, old *page, off int, src []byte) bool {
	qp, end := &s.rec(q).data, off+len(src)
	return bytes.Equal(qp[off:end], src) && bytes.Equal(qp[:off], old[:off]) && bytes.Equal(qp[end:], old[end:])
}

// release drops one reference to page id; the last one returns it to the
// pool.
func (s *Slab) release(id uint32) {
	r := s.rec(id)
	if r.ref--; r.ref == 0 {
		r.sum, s.pool.free = uint64(s.pool.free), id
	}
}

// HeldBytes reports the private-memory storage the slab holds: every
// page its pool has handed out, live or recycled — the most distinct
// pages its memories have held at once, each once however many cores
// pointed at it. Reset keeps them for the next run.
func (s *Slab) HeldBytes() int { return int(s.pool.taken) * PageBytes }
