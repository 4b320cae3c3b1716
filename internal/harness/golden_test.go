package harness

import (
	"testing"

	"repro/internal/algsel"
	"repro/internal/scc"
)

// goldenPoint pins the exact simulated per-repetition latencies (µs) of a
// headline experiment point. The values were captured from the simulator
// BEFORE the hot-path overhaul (indexed-heap scheduler, bulk RMA extents,
// parallel sharding) and must stay bit-identical forever: the overhaul's
// contract is that it changes wall-clock time only, never simulated time.
// Latencies are exact — they are integer picosecond timestamps divided by
// 1e6 — so the comparison is float64 equality, not approximate.
type goldenPoint struct {
	name  string
	want  []float64
	run   func() []float64
	heavy bool // skipped with -short (≈1 s of simulation each)
}

func goldenPoints(cfg scc.Config) []goldenPoint {
	return []goldenPoint{
		{
			name: "fig8a/oc-k7-1CL",
			want: []float64{5.088, 5.088, 5.088},
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpBcast, "ocbcast", 7).sized(1, 3))
			},
		},
		{
			name: "fig8a/binomial-1CL",
			want: []float64{11.589, 11.589, 11.589},
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpBcast, "binomial", 0).sized(1, 3))
			},
		},
		{
			name:  "fig8b/oc-k7-8192CL",
			want:  []float64{7908.4312, 7908.4312},
			heavy: true,
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpBcast, "ocbcast", 7).sized(8192, 2))
			},
		},
		{
			name:  "fig8b/sag-8192CL",
			want:  []float64{20638.362, 20638.362},
			heavy: true,
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpBcast, "sag", 0).sized(8192, 2))
			},
		},
		{
			name: "allreduce/oc-k7-8KiB",
			want: []float64{1617.671, 1617.671},
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpAllReduce, "oc", 7).sized(256, 2))
			},
		},
		{
			name: "allreduce/twosided-8KiB",
			want: []float64{2888.771, 2888.771},
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpAllReduce, "twosided", 0).sized(256, 2))
			},
		},
		{
			// The blocking collectives are now issue + immediate Wait on
			// the progress engine; this point pins that rewrite to the
			// same pre-engine snapshot value as allreduce/oc-k7-8KiB.
			name: "allreduce/oc-k7-8KiB-blocking-via-engine",
			want: []float64{1617.671},
			run: func() []float64 {
				return measure(newCell(cfg, algsel.OpAllReduce, "oc", 7).sized(256, 1))
			},
		},
		{
			// IAllReduce + immediate Wait must be byte-identical to the
			// blocking call — the progress engine's headline contract.
			name: "allreduce/oc-k7-8KiB-issue-wait",
			want: []float64{1617.671},
			run: func() []float64 {
				c := newCell(cfg, algsel.OpAllReduce, "oc", 7).sized(256, 1)
				c.Overlap = true
				return measure(c)
			},
		},
	}
}

func checkGolden(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d repetitions, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: rep %d = %v µs, want exactly %v µs", label, i, got[i], want[i])
		}
	}
}

// TestGoldenSimulatedLatencies asserts the headline points are (a) equal
// to the pre-overhaul snapshot and (b) identical across back-to-back runs
// in the same process.
func TestGoldenSimulatedLatencies(t *testing.T) {
	cfg := scc.DefaultConfig()
	for _, pt := range goldenPoints(cfg) {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			if pt.heavy && testing.Short() {
				t.Skip("heavy golden point skipped with -short")
			}
			checkGolden(t, "snapshot", pt.run(), pt.want)
			checkGolden(t, "run-to-run", pt.run(), pt.want)
		})
	}
}
