package harness

import (
	occore "repro/internal/core"
	"repro/internal/scc"
	"repro/internal/workload"
)

// Ablations renders the design ablations: double vs single buffering,
// binary vs sequential notification, the fan-out sweep, the baseline
// ladder and the two §5.4 optimizations the paper leaves out. Each table
// is one grid of 48-core broadcasts, root 0.
func Ablations(cfg scc.Config, effort int) ([]*Table, error) {
	// ablate measures every row's broadcast at every size.
	ablate := func(rows []Cell, sizes ...int) [][]float64 {
		return sweep(len(rows), len(sizes), func(r, c int) Cell { return rows[r].sized(sizes[c]) })
	}
	oc := func(k int) Cell { return newCell(cfg, workload.OpBcast, "ocbcast", k) }
	base := func(alg string) Cell { return newCell(cfg, workload.OpBcast, alg, 0) }

	// §4.2: double buffering (2×96-line chunks) against the single-buffer
	// variant (1×192) the paper describes replacing.
	buffering := &Table{
		Title:   "Ablation — double buffering (2×96) vs single buffer (1×192), k = 7",
		Columns: []string{"variant", "latency @192CL (µs)", "throughput @4096CL (MB/s)"},
		Notes: []string{
			"§4.2: halving the chunk overlaps the root's staging of the",
			"second half with the children's pull of the first.",
		},
	}
	single := oc(7)
	single.OC.BufLines, single.OC.DoubleBuffer = 192, false
	lat := ablate([]Cell{oc(7), single}, 192, 4096)
	buffering.AddRow("double buffer", lat[0][0], ThroughputMBps(4096, lat[0][1]))
	buffering.AddRow("single buffer", lat[1][0], ThroughputMBps(4096, lat[1][1]))

	// §4.1: "It can be shown analytically that a binary tree provides the
	// lowest notification latency" — against the parent notifying each
	// child in turn.
	notification := &Table{
		Title:   "Ablation — binary notification tree vs sequential notification",
		Columns: []string{"k", "binary tree (µs)", "sequential (µs)"},
		Notes:   []string{"1-CL broadcast latency on 48 cores, root 0."},
	}
	ks := []int{7, 16, 24, 47}
	var rows []Cell
	for _, k := range ks {
		seq := oc(k)
		seq.OC.SequentialNotify = true
		rows = append(rows, oc(k), seq)
	}
	lat = ablate(rows, 1)
	for i, k := range ks {
		notification.AddRow(k, lat[2*i][0], lat[2*i+1][0])
	}

	// The fan-out k is the paper's central tuning knob: small-message
	// latency (depth vs polling) and large-message throughput (contention
	// at high k).
	kSweep := &Table{
		Title:   "k sweep — OC-Bcast latency and throughput vs fan-out, P = 48",
		Columns: []string{"k", "depth", "lat @1CL (µs)", "lat @96CL (µs)", "thr @4096CL (MB/s)"},
		Notes: []string{
			"Paper: k=7 is the latency/throughput sweet spot; k<=24 avoids",
			"MPB contention; large k pays root-side polling at small sizes.",
		},
	}
	ks = []int{2, 3, 5, 7, 11, 16, 24, 32, 47}
	rows = nil
	for _, k := range ks {
		rows = append(rows, oc(k))
	}
	for i, l := range ablate(rows, 1, 96, 4096) {
		kSweep.AddRow(ks[i], occore.TreeDepth(scc.NumCores, ks[i]), l[0], l[1], ThroughputMBps(4096, l[2]))
	}

	// The linear baseline quantifies what trees buy.
	ladder := &Table{
		Title:   "Baseline ladder — 16-CL broadcast latency, P = 48",
		Columns: []string{"algorithm", "latency (µs)"},
	}
	names := []string{"naive", "binomial", "sag", "OC-Bcast k=7"}
	for i, l := range ablate([]Cell{base("naive"), base("binomial"), base("sag"), oc(7)}, 16) {
		ladder.AddRow(names[i], l[0])
	}

	// §5.4 sketches two improvements: the one-sided scatter-allgather and
	// the leaf-direct OC-Bcast.
	oneSided := &Table{
		Title:   "§5.4 optimizations — one-sided s-ag and leaf-direct OC-Bcast",
		Columns: []string{"algorithm", "thr @8192CL (MB/s)", "lat @96CL (µs)"},
		Notes: []string{
			"\"Adapting the two-sided scatter-allgather to use one-sided",
			"primitives\" overlaps each ring exchange; \"a leaf does not need",
			"to copy the data to its MPB\" removes one MPB pass per chunk.",
		},
	}
	leafDirect := oc(7)
	leafDirect.OC.LeafDirect = true
	names = []string{"sag", "sag1s", "OC-Bcast k=7", "OC-Bcast k=7 leaf-direct"}
	for i, l := range ablate([]Cell{base("sag"), base("sag1s"), oc(7), leafDirect}, 8192, 96) {
		oneSided.AddRow(names[i], ThroughputMBps(8192, l[0]), l[1])
	}
	return []*Table{buffering, notification, kSweep, ladder, oneSided}, nil
}
