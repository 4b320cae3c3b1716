package harness

import (
	"testing"

	"repro/internal/scc"
	"repro/internal/workload"
)

// goldenPoint pins the exact simulated latency (µs) of a headline
// experiment point. The values were captured from the simulator BEFORE
// the hot-path overhaul (indexed-heap scheduler, bulk RMA extents,
// parallel sharding) and must stay bit-identical forever: the overhaul's
// contract is that it changes wall-clock time only, never simulated time.
// Latencies are exact — they are integer picosecond timestamps divided by
// 1e6 — so the comparison is float64 equality, not approximate.
type goldenPoint struct {
	name  string
	want  float64
	cell  Cell
	heavy bool // skipped with -short (≈1 s of simulation each)
}

func goldenPoints(cfg scc.Config) []goldenPoint {
	issueWait := newCell(cfg, workload.OpAllReduce, "oc", 7).sized(256)
	issueWait.Overlap = true
	return []goldenPoint{
		{name: "fig8a/oc-k7-1CL", want: 5.088, cell: newCell(cfg, workload.OpBcast, "ocbcast", 7).sized(1)},
		{name: "fig8a/binomial-1CL", want: 11.589, cell: newCell(cfg, workload.OpBcast, "binomial", 0).sized(1)},
		// Over the contention knee (47 readers on root's MPB port) and
		// recorded after the overhaul. Its run-to-run check measures it
		// again on a recycled pooled chip, so it pins that a cell does not
		// depend on the pool's history: an over-knee cell is the isolated
		// first call.
		{name: "fig8a/oc-k47-1CL", want: 8.74158, cell: newCell(cfg, workload.OpBcast, "ocbcast", 47).sized(1)},
		{name: "fig8b/oc-k7-8192CL", want: 7908.4312, heavy: true, cell: newCell(cfg, workload.OpBcast, "ocbcast", 7).sized(8192)},
		{name: "fig8b/sag-8192CL", want: 20638.362, heavy: true, cell: newCell(cfg, workload.OpBcast, "sag", 0).sized(8192)},
		// The blocking collectives are issue + immediate Wait on the
		// progress engine; this point pins that rewrite to the
		// pre-engine snapshot value.
		{name: "allreduce/oc-k7-8KiB", want: 1617.671, cell: newCell(cfg, workload.OpAllReduce, "oc", 7).sized(256)},
		{name: "allreduce/twosided-8KiB", want: 2888.771, cell: newCell(cfg, workload.OpAllReduce, "twosided", 0).sized(256)},
		// IAllReduce + immediate Wait must be byte-identical to the
		// blocking call — the progress engine's headline contract.
		{name: "allreduce/oc-k7-8KiB-issue-wait", want: 1617.671, cell: issueWait},
	}
}

func checkGolden(t *testing.T, label string, got, want float64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: %v µs, want exactly %v µs", label, got, want)
	}
}

// TestGoldenSimulatedLatencies asserts the headline points are (a) equal
// to the pre-overhaul snapshot and (b) identical across back-to-back runs
// in the same process, the second on a pooled chip the first released.
func TestGoldenSimulatedLatencies(t *testing.T) {
	cfg := scc.DefaultConfig()
	for _, pt := range goldenPoints(cfg) {
		t.Run(pt.name, func(t *testing.T) {
			if pt.heavy && testing.Short() {
				t.Skip("heavy golden point skipped with -short")
			}
			checkGolden(t, "snapshot", measure(pt.cell), pt.want)
			checkGolden(t, "run-to-run", measure(pt.cell), pt.want)
		})
	}
}
