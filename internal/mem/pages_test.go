package mem

import (
	"bytes"
	"encoding/binary"
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
