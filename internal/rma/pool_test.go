package rma

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scc"
	"repro/internal/trace"
)

// TestReleaseDropsChipsOverPrivateBudget: a released chip is parked and
// handed out again while its private memory holds at most
// poolMaxPrivateBytes, and dropped once a run has written more distinct
// pages than that — Reset keeps the pool's pages, so a parked chip would
// pin them.
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

	// A distinct word on every 2 KiB page, up to just past the budget:
	// pages of equal content would be held once.
	for addr := 0; addr <= poolMaxPrivateBytes; addr += 2 << 10 {
		big.Private(2).Write(addr, binary.LittleEndian.AppendUint32(nil, uint32(addr)+1))
	}
	if held := big.HeldBytes(); held <= poolMaxPrivateBytes {
		t.Fatalf("the chip holds %d bytes after the writes, want more than the %d-byte budget", held, poolMaxPrivateBytes)
	}
	ReleaseChip(big)
	again := AcquireChipN(cfg, n)
	defer ReleaseChip(again)
	if again == big {
		t.Fatal("a chip over the private-memory budget was parked")
	}
}

// TestCleanRunPinsNoChip: a chip dropped after a clean Run is collected.
// Its procs' coroutines are back on the engine's idle list by then, and
// an idle coroutine must reference nothing of the run. The runtime never
// finalizes an object on a reference cycle, and a chip is one (Run's
// adapter closure points back at it), so the finalizer goes on the
// chip's counter table, which only the chip references and which
// references nothing.
func TestCleanRunPinsNoChip(t *testing.T) {
	var freed atomic.Bool
	func() {
		c := NewChipN(scc.DefaultConfig(), 8)
		c.Run(func(core *Core) {
			core.SetFlag((core.ID()+1)%8, 0, 1)
			core.WaitFlagGE(0, 1)
		})
		runtime.SetFinalizer(&c.Counter[0], func(*trace.CoreCounters) { freed.Store(true) })
	}()
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if !freed.Load() {
		t.Error("a chip dropped after a clean Run was not collected")
	}
}
