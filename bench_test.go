// One testing.B benchmark per paper artifact (tables AND figures), as the
// repository's top-level regeneration entry points. Each benchmark runs
// the corresponding harness experiment and reports the headline simulated
// metric via b.ReportMetric, so `go test -bench=. -benchmem` both
// exercises the full pipeline and prints the numbers to compare against
// the paper. The printable tables themselves come from `go run
// ./cmd/ocbench <experiment>`.
package ocbcast_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/scc"
)

func cfg() scc.Config { return scc.DefaultConfig() }

// BenchmarkFig3PutGet regenerates Figure 3: put/get completion times vs
// distance, simulator vs model. Reported metric: simulated completion of
// a 16-CL MPB->MPB get at the maximum distance (9 hops), in µs.
func BenchmarkFig3PutGet(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.Fig3, 1)[0]
		// Last MPB get row at d=9, 16 CL: find it.
		for _, r := range tbl.Rows {
			if r[0] == "get mpb->mpb" && r[1] == "16" && r[2] == "9" {
				last = parseF(b, r[3])
			}
		}
	}
	b.ReportMetric(last, "µs/get16CL@9hops")
}

// BenchmarkTable1Calibration regenerates Table 1 by microbenchmark +
// least-squares fit. Reported metric: fitted Lhop in µs (paper: 0.005).
func BenchmarkTable1Calibration(b *testing.B) {
	var lhop float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.Table1, 1)[0]
		lhop = parseF(b, tbl.Rows[0][2])
	}
	b.ReportMetric(lhop*1000, "ns-Lhop-fitted")
}

// BenchmarkFig4Contention regenerates Figure 4. Reported metrics: average
// 128-CL get completion with 47 concurrent accessors (µs) and the
// slowest/fastest spread (paper: >2x).
func BenchmarkFig4Contention(b *testing.B) {
	var avg47, spread float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.Fig4, 1)[0]
		for _, r := range tbl.Rows {
			if r[0] == "get 128CL" && r[1] == "47" {
				avg47 = parseF(b, r[2])
				spread = parseF(b, r[5])
			}
		}
	}
	b.ReportMetric(avg47, "µs-avg-get@47cores")
	b.ReportMetric(spread, "slow/fast")
}

// BenchmarkFig6Model regenerates Figure 6 from the analytical model.
// Reported metric: modeled OC-Bcast k=7 latency at 96 CL (µs).
func BenchmarkFig6Model(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		mdl := model.New(cfg().Params)
		v = mdl.OCBcastLatency(model.DefaultBcastParams(), 96, 7).Microseconds()
		run(b, harness.Fig6, 1)
	}
	b.ReportMetric(v, "µs-model-k7@96CL")
}

// BenchmarkTable2Model regenerates Table 2. Reported metrics: modeled
// peak throughputs in MB/s (paper: ~34-36 vs 13.38).
func BenchmarkTable2Model(b *testing.B) {
	var oc, sag float64
	for i := 0; i < b.N; i++ {
		mdl := model.New(cfg().Params)
		bp := model.DefaultBcastParams()
		oc = model.LinesPerSecToMBps(mdl.OCBcastThroughput(bp))
		sag = model.LinesPerSecToMBps(mdl.SAGThroughput(bp))
		run(b, harness.Table2, 1)
	}
	b.ReportMetric(oc, "MB/s-ocbcast")
	b.ReportMetric(sag, "MB/s-scatterAG")
}

// BenchmarkFig8aLatency regenerates Figure 8a's headline point: measured
// 1-CL broadcast latency for OC-Bcast k=7 vs binomial (paper: 16.6 vs
// 21.6 µs, 27% improvement).
func BenchmarkFig8aLatency(b *testing.B) {
	var oc, bin float64
	for i := 0; i < b.N; i++ {
		lat := harness.Grid([]harness.Cell{bcast("ocbcast", 1, 3), bcast("binomial", 1, 3)})
		oc, bin = lat[0], lat[1]
	}
	b.ReportMetric(oc, "µs-ocbcast-1CL")
	b.ReportMetric(bin, "µs-binomial-1CL")
	b.ReportMetric(100*(bin-oc)/bin, "%improvement")
}

// BenchmarkFig8bThroughput regenerates Figure 8b's peak: measured
// throughput at 8192 CL for OC-Bcast k=7 vs scatter-allgather (paper:
// almost 3x).
func BenchmarkFig8bThroughput(b *testing.B) {
	var oc, sag float64
	for i := 0; i < b.N; i++ {
		const lines = 8192
		lat := harness.Grid([]harness.Cell{bcast("ocbcast", lines, 2), bcast("sag", lines, 2)})
		oc, sag = harness.ThroughputMBps(lines, lat[0]), harness.ThroughputMBps(lines, lat[1])
	}
	b.ReportMetric(oc, "MB/s-ocbcast")
	b.ReportMetric(sag, "MB/s-scatterAG")
	b.ReportMetric(oc/sag, "ratio")
}

// BenchmarkMeshStress regenerates the §3.3 mesh-stress experiment with
// the detailed NoC model. Reported metric: loaded/unloaded latency ratio
// (paper: 1.0 — the mesh is not a bottleneck).
func BenchmarkMeshStress(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.MeshStress, 1)[0]
		free := parseF(b, tbl.Rows[0][1])
		loaded := parseF(b, tbl.Rows[1][1])
		ratio = loaded / free
	}
	b.ReportMetric(ratio, "loaded/free")
}

// BenchmarkAblationNotification measures the binary-vs-sequential
// notification design choice at k=47 (1-CL broadcast).
func BenchmarkAblationNotification(b *testing.B) {
	var bin, seq float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.Ablations, 1)[1]
		last := len(tbl.Rows) - 1
		bin = parseF(b, tbl.Rows[last][1])
		seq = parseF(b, tbl.Rows[last][2])
	}
	b.ReportMetric(bin, "µs-binary-k47")
	b.ReportMetric(seq, "µs-sequential-k47")
}

// BenchmarkAblationBuffering measures double vs single buffering.
func BenchmarkAblationBuffering(b *testing.B) {
	var double, single float64
	for i := 0; i < b.N; i++ {
		tbl := run(b, harness.Ablations, 1)[0]
		double = parseF(b, tbl.Rows[0][1])
		single = parseF(b, tbl.Rows[1][1])
	}
	b.ReportMetric(double, "µs-double@192CL")
	b.ReportMetric(single, "µs-single@192CL")
}

// BenchmarkFigAllReduce measures the §7-extension headline: one-sided
// OC-AllReduce vs the two-sided Reduce+Bcast composition at 8 KiB on 48
// cores (fig-allreduce's acceptance point).
func BenchmarkFigAllReduce(b *testing.B) {
	var oc, two float64
	for i := 0; i < b.N; i++ {
		const lines = 256 // 8 KiB
		cell := func(alg string) harness.Cell {
			return harness.Cell{Cfg: cfg(), Op: algsel.OpAllReduce, Choice: algsel.Choice{Alg: alg},
				OC: occore.DefaultConfig(), Lines: lines, Reps: 2}
		}
		lat := harness.Grid([]harness.Cell{cell("oc"), cell("twosided")})
		oc, two = lat[0], lat[1]
	}
	b.ReportMetric(oc, "µs-oc-allreduce-8KiB")
	b.ReportMetric(two, "µs-twosided-8KiB")
	b.ReportMetric(two/oc, "speedup")
}

// BenchmarkOCReduceModel reports the closed-form OC-Reduce prediction the
// simulation is cross-validated against (within 15%).
func BenchmarkOCReduceModel(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		mdl := model.New(cfg().Params)
		v = mdl.OCReduceLatency(model.DefaultReduceParams(), 256, 7).Microseconds()
	}
	b.ReportMetric(v, "µs-model-reduce-k7@8KiB")
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated
// broadcast events per wall second for a 96-CL OC-Bcast on 48 cores.
// Run with -benchmem: pooled chips and pooled coroutines recycle
// every per-run structure, so steady state allocates only the handful of
// result and bookkeeping values outside the simulation proper (budget
// pinned at 18 by TestAllocsPerBroadcastBudget).
func BenchmarkEngineThroughput(b *testing.B) {
	cells := []harness.Cell{bcast("ocbcast", 96, 1)}
	for i := 0; i < b.N; i++ {
		harness.Grid(cells)
	}
}

// BenchmarkSweepParallel measures the parallel experiment harness: a
// Fig8a-style (size × algorithm) grid sharded across GOMAXPROCS workers
// by harness.Grid, one independent chip per cell. Compare against
// GOMAXPROCS=1 for the sharding speedup; simulated outputs are identical
// either way (see harness.TestTablesEffort1). The workload is fixed
// (including its repetition count) so cross-commit comparisons measure
// hot-path changes only.
func BenchmarkSweepParallel(b *testing.B) {
	var cells []harness.Cell
	for _, lines := range []int{1, 16, 48, 96} {
		for _, k := range []int{2, 7, 47} {
			c := bcast("ocbcast", lines, 2)
			c.OC.K = k
			cells = append(cells, c)
		}
		cells = append(cells, bcast("binomial", lines, 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.Grid(cells)
	}
	b.ReportMetric(float64(len(cells)), "cells")
}

// run runs a registered experiment's function on the default chip.
func run(b *testing.B, exp func(scc.Config, int) ([]*harness.Table, error), effort int) []*harness.Table {
	b.Helper()
	tbls, err := exp(cfg(), effort)
	if err != nil {
		b.Fatal(err)
	}
	return tbls
}

// bcast is a 48-core broadcast cell of a registered algorithm, at the
// paper's one-sided configuration (k = 7).
func bcast(alg string, lines, reps int) harness.Cell {
	return harness.Cell{Cfg: cfg(), Op: algsel.OpBcast, Choice: algsel.Choice{Alg: alg},
		OC: occore.DefaultConfig(), Lines: lines, Reps: reps}
}

func parseF(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		b.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}
