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
