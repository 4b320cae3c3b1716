package harness

import (
	"testing"

	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving harness determinism contract: the pooled ServeChip path
// reproduces itself run over run on a warm chip pool. (Sharding sweep
// cells across ParallelMap workers is pinned by TestTablesEffort1.)

// serveChipMix is a small synthetic mix for the pooled-chip path.
func serveChipMix(n int) []serve.Stream {
	return []serve.Stream{
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "a", Weight: 3, Seed: 1, Count: 30, N: n,
			Ops:   workload.Ops(),
			Lines: []int{1, 4, 8}, MeanGapUs: 40,
		}),
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "b", Weight: 1, Seed: 2, Count: 30, N: n,
			Ops:   []string{workload.OpBcast, workload.OpAllReduce},
			Lines: []int{2, 16}, MeanGapUs: 25,
		}),
	}
}

func TestServeChipDeterminism(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n = 8
	scfg := serve.Config{Policy: serve.PolicyWeighted, QueueBound: 16, MaxBatch: 4, MaxBatchLines: 64, Lanes: 2}
	streams := serveChipMix(n)
	a := ServeChip(cfg, n, scfg, streams)
	b := ServeChip(cfg, n, scfg, streams) // warm pool, recycled chip
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("ServeChip diverged between a cold and a warm pooled run")
	}
	if a.Completed == 0 || a.Completed+a.Rejected != a.Offered {
		t.Fatalf("accounting: completed %d rejected %d offered %d", a.Completed, a.Rejected, a.Offered)
	}
}

func TestServingSaturationShape(t *testing.T) {
	cells := []ServeCell{
		{Mesh: "6x4", Cores: 48, Load: 1, Mode: "default", ThroughputRps: 100},
		{Mesh: "6x4", Cores: 48, Load: 4, Mode: "default", ThroughputRps: 90},
		{Mesh: "6x4", Cores: 48, Load: 1, Mode: "auto", ThroughputRps: 105},
		{Mesh: "6x4", Cores: 48, Load: 4, Mode: "auto", ThroughputRps: 95},
		{Mesh: "16x12", Cores: 384, Load: 1, Mode: "default", ThroughputRps: 50},
		{Mesh: "16x12", Cores: 384, Load: 1, Mode: "auto", ThroughputRps: 50},
	}
	sats := Saturation(cells)
	if len(sats) != 2 {
		t.Fatalf("saturation rows = %d, want 2", len(sats))
	}
	if sats[0].DefaultRps != 100 || sats[0].AutoRps != 105 || sats[0].Ratio != 1.05 {
		t.Fatalf("48-core saturation %+v", sats[0])
	}
	if sats[1].Mesh != "16x12" || sats[1].Cores != 384 || sats[1].Ratio != 1 {
		t.Fatalf("384-core saturation %+v, want ratio 1", sats[1])
	}
}
