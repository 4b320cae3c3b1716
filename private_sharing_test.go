package ocbcast_test

import (
	"bytes"
	"math/rand"
	"runtime"
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

// TestBroadcastPayloadLandsByCompare: in the benchmark's broadcast
// sequence — eight broadcasts of 1, 32, 96 and 384 lines twice over, 1 026
// lines from eight roots spread over the chip, at consecutive addresses —
// every receiving core makes the page writes the first one made, so the
// page pool's transition memo settles nearly all of them and the content
// hash sees a small share of the bytes written. The counts are exact, so
// they must repeat at any GOMAXPROCS.
func TestBroadcastPayloadLandsByCompare(t *testing.T) {
	run := func(opts ocbcast.Options) mem.PageStats {
		sizes := [4]int{1, 32, 96, 384}
		sys := ocbcast.New(opts)
		n := sys.N()
		roots := [8]int{n / 2, n - 1, 0, n/4 + 1, 3 * n / 4, 1, n / 8, 5*n/8 + 1}
		var addrs, lines [8]int
		end := 0
		for i := range roots {
			addrs[i], lines[i] = end, sizes[i%len(sizes)]
			end += lines[i] * 32
		}
		rng := rand.New(rand.NewSource(1))
		image := make([]byte, end)
		rng.Read(image)
		skew := make([]float64, n)
		for c := range skew {
			skew[c] = 4 * rng.Float64()
		}
		for i := range roots {
			sys.WritePrivate(roots[i], addrs[i], image[addrs[i]:addrs[i]+lines[i]*32])
		}
		sys.Run(func(c *ocbcast.Core) {
			c.Compute(skew[c.ID()])
			for i := range roots {
				c.Barrier()
				c.Broadcast(roots[i], addrs[i], lines[i])
			}
		})
		for core := 0; core < n; core++ {
			if !bytes.Equal(sys.ReadPrivate(core, 0, end), image) {
				t.Fatalf("%d cores: core %d does not hold the payloads", n, core)
			}
		}
		return ocbcast.PageStats(sys)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	stats := func(opts ocbcast.Options) mem.PageStats {
		runtime.GOMAXPROCS(1)
		st := run(opts)
		runtime.GOMAXPROCS(4)
		if again := run(opts); again != st {
			t.Errorf("page counts %+v at GOMAXPROCS 1, %+v at 4", st, again)
		}
		t.Logf("%+v", st)
		return st
	}
	if st := stats(ocbcast.Options{}); st.Hashed*10 > st.Written || st.Hits*10 < 9*st.Writes {
		t.Errorf("48 cores: %d of %d bytes written were hashed (want ≤ 10 %%), the memo settled %d of %d page writes (want ≥ 90 %%)",
			st.Hashed, st.Written, st.Hits, st.Writes)
	}
	if st := stats(ocbcast.Options{MeshWidth: 16, MeshHeight: 12}); st.Hashed > 1_300_000 {
		t.Errorf("384 cores: %d of %d bytes written were hashed, want ≤ 1 300 000", st.Hashed, st.Written)
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
