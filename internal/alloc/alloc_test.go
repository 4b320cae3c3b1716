package alloc

import "testing"

func TestFill(t *testing.T) {
	type rec [144]byte
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{1, 1},                   // 152 bytes → 256: one record
		{14, (2048 - 8) / 144},   // 2 024 bytes → 2 KiB
		{48, (8192 - 8) / 144},   // 6 920 bytes → 8 KiB
		{56, 56},                 // exactly fills 8 KiB less the header
		{57, (16384 - 8) / 144},  // one more: 16 KiB
		{227, (32768 - 8) / 144}, // 32 696 bytes → 32 KiB
		{228, 228},               // 32 840 bytes: whole pages, as asked
		{384, 384},
	} {
		if got := Fill[rec](tc.n); got != tc.want {
			t.Errorf("Fill[144 B](%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if got := Fill[struct{}](5); got != 5 {
		t.Errorf("Fill of zero-size values = %d, want 5", got)
	}
	s := Slice[rec](48)
	if len(s) != 48 || cap(s) != 56 {
		t.Errorf("Slice[144 B](48) has len %d cap %d, want 48 and 56", len(s), cap(s))
	}
}

// TestArena: windows are zeroed, capped at a power-of-two capacity and
// carved Per to a block; a window given back is the next one its class
// hands out; Grow copies into a larger window and gives the old one back.
func TestArena(t *testing.T) {
	a := Arena[uint64]{Per: 4, Min: 2}
	w := a.Take(3)
	if len(w) != 3 || cap(w) != 4 {
		t.Fatalf("Take(3) has len %d cap %d, want 3 and 4", len(w), cap(w))
	}
	if m := a.Take(1); len(m) != 1 || cap(m) != 2 {
		t.Fatalf("Take(1) below Min has len %d cap %d, want 1 and 2", len(m), cap(m))
	}
	for i := range w {
		w[i] = uint64(i + 1)
	}
	if allocs := testing.AllocsPerRun(1, func() { a.Take(4) }); allocs != 0 {
		t.Errorf("a window from the block's unissued rest allocated %.0f times", allocs)
	}
	g := a.Grow(w, 5)
	if len(g) != 5 || cap(g) != 8 || g[0] != 1 || g[2] != 3 || g[3] != 0 || g[4] != 0 {
		t.Fatalf("Grow to 5 gave %v (cap %d), want the three values, then zeros, cap 8", g, cap(g))
	}
	r := a.Take(4)
	if &r[:1][0] != &w[:1][0] || r[0] != 0 || r[2] != 0 {
		t.Fatalf("the window Grow gave back was not reused zeroed: %v", r)
	}
	a.Give(r)
	if d := a.Buffer(3); &d[:1][0] != &r[:1][0] || cap(d) != 4 {
		t.Fatal("Buffer did not hand out the window given back")
	}
	var grown []uint64
	for i := 0; i < 100; i++ {
		grown = a.Append(grown, uint64(i))
	}
	if len(grown) != 100 || grown[99] != 99 || cap(grown) != 128 {
		t.Fatalf("100 appends: len %d cap %d", len(grown), cap(grown))
	}
	var none *Arena[byte]
	if b := none.Take(5); len(b) != 5 || cap(b) != 8 {
		t.Fatalf("a nil arena's Take(5) has len %d cap %d", len(b), cap(b))
	}
	none.Give(make([]byte, 4))
}

// TestArenaBlocks: a block holds Per windows, at least minBlock and at
// most maxBlock bytes of them, and a block between 8 and 32 KiB is cut
// down to a power of two.
func TestArenaBlocks(t *testing.T) {
	for _, tc := range []struct {
		per, size, want int
	}{
		{1, 1, 32},         // 8 bytes: minBlock
		{48, 1, 48},        // 384 bytes
		{48, 1 << 10, 32},  // 8 KiB windows: maxBlock
		{1, 1 << 17, 1},    // a window beyond maxBlock
		{6, 1792 / 8, 4},   // 10 752 bytes cut to 8 KiB
		{384, 16 / 8, 384}, // 16-byte windows, 6 KiB
	} {
		a := Arena[uint64]{Per: tc.per}
		if got := a.perBlock(tc.size); got != tc.want {
			t.Errorf("Per %d, %d-element windows: %d to a block, want %d", tc.per, tc.size, got, tc.want)
		}
	}
	if Share(384) != 48 || Share(48) != 6 || Share(8) != 4 || Share(2) != 2 {
		t.Errorf("Share(384, 48, 8, 2) = %d, %d, %d, %d, want 48, 6, 4, 2", Share(384), Share(48), Share(8), Share(2))
	}
}
