package rma

import (
	"testing"

	"repro/internal/scc"
)

// TestReleaseDropsChipsOverPrivateBudget: a released chip is parked and
// handed out again while its private memory holds at most
// poolMaxPrivateBytes, and dropped once a run has written more than that —
// Reset keeps every page, so a parked chip would pin them.
func TestReleaseDropsChipsOverPrivateBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n = 3 // a pool key no other test uses

	small := AcquireChipN(cfg, n)
	small.Private(1).Write(0, make([]byte, 64<<10))
	ReleaseChip(small)
	big := AcquireChipN(cfg, n)
	if big != small {
		t.Fatal("a chip within the private-memory budget was not parked")
	}

	// One byte per 8 KiB page, up to just past the budget.
	for addr := 0; addr <= poolMaxPrivateBytes; addr += 8 << 10 {
		big.Private(2).Write(addr, []byte{1})
	}
	if held := big.Private(2).HeldBytes(); held <= poolMaxPrivateBytes {
		t.Fatalf("core 2 holds %d bytes after the writes, want more than the %d-byte budget", held, poolMaxPrivateBytes)
	}
	ReleaseChip(big)
	again := AcquireChipN(cfg, n)
	defer ReleaseChip(again)
	if again == big {
		t.Fatal("a chip over the private-memory budget was parked")
	}
}
