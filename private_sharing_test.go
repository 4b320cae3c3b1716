package ocbcast_test

import (
	"bytes"
	"math/rand"
	"testing"

	ocbcast "repro"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestBroadcastPayloadHeldOnce: a 384-core broadcast of 1 026 lines
// leaves every core holding the payload and the chip holding it once —
// at most the payload's pages plus two, which the pipeline's partly
// written pages may add at its peak — instead of once per core.
func TestBroadcastPayloadHeldOnce(t *testing.T) {
	const lines = 1026
	sys := ocbcast.New(ocbcast.Options{MeshWidth: 16, MeshHeight: 12})
	data := make([]byte, lines*32)
	rand.New(rand.NewSource(1)).Read(data)
	sys.WritePrivate(0, 0, data)
	sys.Run(func(c *ocbcast.Core) { c.Broadcast(0, 0, lines) })
	for core := 0; core < sys.N(); core++ {
		if !bytes.Equal(sys.ReadPrivate(core, 0, len(data)), data) {
			t.Fatalf("core %d does not hold the payload", core)
		}
	}
	limit := ((len(data)+mem.PageBytes-1)/mem.PageBytes + 2) * mem.PageBytes
	held := ocbcast.HeldPrivateBytes(sys)
	t.Logf("%d bytes of pages held, limit %d", held, limit)
	if held > limit {
		t.Errorf("a %d-core broadcast of %d bytes holds %d bytes of pages, want ≤ %d", sys.N(), len(data), held, limit)
	}
}

// TestZeroReplayHoldsNoPage: Replay stages nothing, so every collective
// of an 8-core replay moves zeros, and a page whose content is all zero
// is no page at all.
func TestZeroReplayHoldsNoPage(t *testing.T) {
	var recs []ocbcast.TraceRecord
	for _, op := range workload.Ops() {
		for _, lines := range []int{1, 8, 32, 96} {
			recs = append(recs, ocbcast.TraceRecord{Op: op, Lines: lines})
		}
	}
	sys := ocbcast.New(ocbcast.Options{Cores: 8})
	if _, err := sys.Replay(&ocbcast.Trace{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if held := ocbcast.HeldPrivateBytes(sys); held != 0 {
		t.Errorf("an 8-core replay of zero data holds %d bytes of pages, want none", held)
	}
}
