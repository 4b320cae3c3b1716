package mem

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzPrivateSharing runs random interleaved writes across several
// memories on one slab and checks, after every step, that each memory
// reads back as a flat reference array and that the pool's books hold:
// every page's reference count is the number of slots pointing at it, its
// hash matches its content, no live page is all zero,
// and the free chain holds exactly the pages nobody points at. The
// writes draw from a two-symbol alphabet keyed by address, so equal
// pages on different memories (and at different addresses) are common,
// and they include zero runs, ranges straddling pages, overwrites of
// shared pages and resets.
func FuzzPrivateSharing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 1, 0, 0, 8, 1, 2, 0, 0, 8, 1})
	f.Add([]byte{0, 3, 0, 20, 2, 1, 3, 0, 20, 2, 0, 5, 1, 7, 0, 1, 5, 1, 7, 3})
	f.Add([]byte{2, 0, 200, 255, 1, 3, 0, 200, 255, 1, 2, 1, 0, 9, 0, 3, 0, 0, 0, 4})
	// One sequence of four writes replayed on all three memories, write
	// by write (as a broadcast's chunks land) and memory by memory: each
	// memory after the first repeats the first one's page transitions,
	// which the memo settles.
	f.Add([]byte{0, 0, 0, 120, 1, 1, 0, 0, 120, 1, 2, 0, 0, 120, 1, 0, 96, 9, 120, 1, 1, 96, 9, 120, 1, 2, 96, 9, 120, 1,
		0, 192, 18, 60, 2, 1, 192, 18, 60, 2, 2, 192, 18, 60, 2, 0, 44, 1, 5, 3, 1, 44, 1, 5, 3, 2, 44, 1, 5, 3})
	f.Add([]byte{0, 0, 0, 120, 1, 0, 96, 9, 120, 1, 0, 192, 18, 60, 2, 0, 44, 1, 5, 3, 1, 0, 0, 120, 1, 1, 96, 9, 120, 1,
		1, 192, 18, 60, 2, 1, 44, 1, 5, 3, 2, 0, 0, 120, 1, 2, 96, 9, 120, 1, 2, 192, 18, 60, 2, 2, 44, 1, 5, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const mems, space, maxSteps = 3, 4 * PageBytes, 48
		slab := NewSlab(2, 1) // a small first block, so pages span blocks
		ps := make([]Private, mems)
		ref := make([][]byte, mems)
		for i := range ps {
			ps[i].Init(i, slab)
			ref[i] = make([]byte, space)
		}
		got := make([]byte, space)
		ops = ops[:min(len(ops), 5*maxSteps)]
		for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
			m := int(ops[0]) % mems
			addr := int(binary.LittleEndian.Uint16(ops[1:])) % space
			n := min(int(ops[3])*20, space-addr)
			switch kind := ops[4] % 5; kind {
			case 4:
				ps[m].Reset()
				clear(ref[m])
			default:
				src := make([]byte, n)
				for i := range src {
					// kind 0 writes zeros; 1–3 a two-symbol pattern of the
					// address, one per key.
					if kind != 0 {
						src[i] = 0x5a + 0x4b*byte((addr+i)>>uint(kind+3)&1)
					}
				}
				ps[m].Write(addr, src)
				copy(ref[m][addr:], src)
			}
			for i := range ps {
				ps[i].Read(got, 0, space)
				if !bytes.Equal(got, ref[i]) {
					t.Fatalf("step %d: memory %d does not read back as its reference", step, i)
				}
			}
			checkPool(t, slab, ps)
		}
	})
}

// checkPool checks the pool's books against the memories' page tables.
func checkPool(t *testing.T, s *Slab, ps []Private) {
	t.Helper()
	refs := make([]uint32, s.pool.taken+1)
	live := 0
	for i := range ps {
		for _, id := range ps[i].pages {
			if id != 0 {
				if refs[id] == 0 {
					live++
				}
				refs[id]++
			}
		}
	}
	free := 0
	for id := s.pool.free; id != 0; id = uint32(s.rec(id).sum) {
		if refs[id] != 0 || s.rec(id).ref != 0 {
			t.Fatalf("page %d is on the free chain with %d slots pointing at it", id, refs[id])
		}
		free++
	}
	if free+live != int(s.pool.taken) {
		t.Fatalf("%d free pages and %d the tables point at, of %d taken", free, live, s.pool.taken)
	}
	for id, n := range refs {
		if n == 0 {
			continue
		}
		r := s.rec(uint32(id))
		if r.ref != n {
			t.Fatalf("page %d counts %d references, %d slots point at it", id, r.ref, n)
		}
		if sum := hashWords(r.data[:], 0); r.sum != sum {
			t.Fatalf("page %d records hash %#x, its content hashes to %#x", id, r.sum, sum)
		}
		if isZero(r.data[:]) {
			t.Fatalf("page %d is all zero", id)
		}
	}
}

// TestSharingConfirmsBytes: two pages whose contents differ but hash
// alike are not shared. Word i of a page adds (w ^ w>>29)·(2i+1)·hashMul
// to its hash, so [3, 0, 7] and [0, 1, 7] collide, and so do [7, 5, 0]
// and [7, 0, 3]. Memory 1 reaches the second content of a pair by a
// last write of the word both contents hold alike, so only the compare
// before (after) the written bytes can tell them apart.
func TestSharingConfirmsBytes(t *testing.T) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	for _, tc := range []struct {
		x, y        []byte
		first, last int // the word memory 1 writes first and last
	}{
		{words(3, 0, 7), words(0, 1, 7), 1, 2},
		{words(7, 5, 0), words(7, 0, 3), 2, 0},
	} {
		if hashWords(tc.x, 0) != hashWords(tc.y, 0) {
			t.Fatal("a pair no longer hashes alike; craft a new one")
		}
		slab := NewSlab(2, 1)
		var a, b Private
		a.Init(0, slab)
		b.Init(1, slab)
		a.Write(0, tc.x)
		b.Write(8*tc.first, tc.y[8*tc.first:8*tc.first+8])
		b.Write(8*tc.last, tc.y[8*tc.last:8*tc.last+8])
		got := make([]byte, len(tc.y))
		b.Read(got, 0, len(got))
		if !bytes.Equal(got, tc.y) || a.pages[0] == b.pages[0] {
			t.Fatalf("memory 1 reads %v, want %v: it took memory 0's page of equal hash", got, tc.y)
		}
	}
}

// memoMems returns three memories on a fresh slab and a page-sized
// pattern with no zero byte.
func memoMems() (*Slab, []Private, []byte) {
	slab := NewSlab(3, 1)
	ps := make([]Private, 3)
	for i := range ps {
		ps[i].Init(i, slab)
	}
	buf := make([]byte, PageBytes)
	for i := range buf {
		buf[i] = byte(i%251 + 1)
	}
	return slab, ps, buf
}

// readsAs fails t unless memory p's first page reads as want, padded
// with zeros.
func readsAs(t *testing.T, p *Private, want []byte) {
	t.Helper()
	got, full := make([]byte, PageBytes), make([]byte, PageBytes)
	copy(full, want)
	p.Read(got, 0, PageBytes)
	if !bytes.Equal(got, full) {
		t.Fatalf("memory %d does not read back what it wrote: it took a page by a transition that no longer holds", p.Owner())
	}
}

// TestMemoHitNeedsEqualBytes: a memory that writes other bytes at the
// offset and length of a remembered transition does not take the page
// that transition made, while one that writes the same bytes does.
func TestMemoHitNeedsEqualBytes(t *testing.T) {
	slab, ps, buf := memoMems()
	ps[0].Write(0, buf[:100]) // zero page → Q, remembered
	ps[1].Write(0, buf[:100])
	if hits := slab.PageStats().Hits; hits != 1 || ps[1].pages[0] != ps[0].pages[0] {
		t.Fatalf("memory 1 repeating memory 0's write took %d memo hits, want 1 and memory 0's page", hits)
	}
	other := bytes.Clone(buf[:100])
	other[50] ^= 0xff
	ps[2].Write(0, other)
	readsAs(t, &ps[2], other)
	if hits := slab.PageStats().Hits; hits != 1 {
		t.Fatalf("memory 2 writing other bytes took %d memo hits, want none", hits-1)
	}
}

// TestMemoMissesRewrittenSource: a transition from a page misses once
// that page was written in place, even where the page it made holds the
// written bytes.
func TestMemoMissesRewrittenSource(t *testing.T) {
	slab, ps, buf := memoMems()
	ps[0].Write(0, buf) // page P
	ps[1].Write(0, buf) // shares P
	patch := []byte{0, 0, 0, 1}
	ps[0].Write(100, patch) // P → Q, remembered; memory 1 holds P alone
	ps[1].Write(200, patch) // P rewritten in place
	hits := slab.PageStats().Hits
	ps[1].Write(100, patch) // Q holds these bytes, but not the ones at 200
	want := bytes.Clone(buf)
	copy(want[100:], patch)
	copy(want[200:], patch)
	readsAs(t, &ps[1], want)
	if got := slab.PageStats().Hits - hits; got != 0 {
		t.Fatalf("memory 1 took %d memo hits from a page rewritten since, want none", got)
	}
}

// TestMemoMissesRecycledResult: a transition misses while the page it
// made is free, and once that page was handed out again, even when its
// new content holds the written bytes at the same offset.
func TestMemoMissesRecycledResult(t *testing.T) {
	slab, ps, buf := memoMems()
	ps[0].Write(0, buf[:100]) // zero page → Q, remembered
	ps[0].Reset()             // Q is free
	ps[1].Write(0, buf[:100])
	checkPool(t, slab, ps)
	q := ps[1].pages[0]
	ps[1].Reset() // Q is free again
	other := bytes.Clone(buf)
	other[1000] ^= 0xff
	ps[0].Write(0, other) // recycles Q, which holds buf[:100] again
	if ps[0].pages[0] != q {
		t.Fatal("memory 0's write did not recycle the released page; rework the test")
	}
	ps[2].Write(0, buf[:100])
	readsAs(t, &ps[2], buf[:100])
	if hits := slab.PageStats().Hits; hits != 0 {
		t.Fatalf("%d memo hits on a released or recycled page, want none", hits)
	}
	checkPool(t, slab, ps)
}

// BenchmarkPrivateBroadcastWrites is how a broadcast's payload lands on a
// 48-core chip: every memory on one slab writes a 1 026-line payload in
// the 96-line chunks of OC-Bcast's pipeline, chunk by chunk. Every memory
// after the first repeats the first one's page transitions, which the
// memo settles by a compare of the written bytes. It checks that each
// memory reads the payload back and that the pool holds it once, plus
// the one partly written page a chunk boundary adds at its peak.
func BenchmarkPrivateBroadcastWrites(b *testing.B) {
	const mems, payloadBytes, chunk = 48, 1026 * 32, 96 * 32
	slab := NewSlab(mems, 1)
	ps := make([]Private, mems)
	for i := range ps {
		ps[i].Init(i, slab)
	}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i*131 + i>>11)
	}
	land := func() {
		for m := range ps {
			ps[m].Reset()
		}
		for off := 0; off < payloadBytes; off += chunk {
			for m := range ps {
				ps[m].Write(off, payload[off:min(off+chunk, payloadBytes)])
			}
		}
	}
	land() // the pool's first block, the tables and the memo come now
	b.ReportAllocs()
	b.SetBytes(mems * payloadBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		land()
	}
	b.StopTimer()
	got := make([]byte, payloadBytes)
	for m := range ps {
		ps[m].Read(got, 0, payloadBytes)
		if !bytes.Equal(got, payload) {
			b.Fatalf("memory %d does not read back the payload", m)
		}
	}
	pages := (payloadBytes + PageBytes - 1) / PageBytes
	for m := range ps {
		if !slices.Equal(ps[m].pages[:pages], ps[0].pages[:pages]) {
			b.Fatalf("memory %d does not share memory 0's pages", m)
		}
	}
	if held := slab.HeldBytes(); held > (pages+1)*PageBytes {
		b.Fatalf("the pool holds %d bytes of pages, want ≤ %d", held, (pages+1)*PageBytes)
	}
}
