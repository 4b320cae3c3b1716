package harness

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/scc"
	"repro/internal/workload"
)

// Golden determinism tests for the fig-apps replay path: a kernel's
// whole-application makespan is a pure function of (trace, mesh,
// algorithm mode) — independent of repetition, of ParallelMap sharding,
// and of the host's GOMAXPROCS — and the 48-core SGD default is pinned
// to the exact simulated value so any timing drift in the replay stack
// surfaces as a diff, not a flake.

// TestReplayKernelsDeterministic replays every 48-core kernel twice
// through the public path and twice through the pooled-chip path: both
// must reproduce to the last bit.
func TestReplayKernelsDeterministic(t *testing.T) {
	cfg := scc.DefaultConfig()
	for _, k := range workload.Kernels(scc.NumCores) {
		a := MeasureApp(cfg, scc.SCC(), k.Trace, "auto")
		b := MeasureApp(cfg, scc.SCC(), k.Trace, "auto")
		if a != b {
			t.Errorf("%s: public replay not deterministic: %v vs %v µs", k.Name, a, b)
		}
	}
	small := workload.Kernels(8)[0]
	a := ReplayChip(cfg, 8, small.Trace)
	b := ReplayChip(cfg, 8, small.Trace)
	if a != b {
		t.Errorf("pooled replay not deterministic: %v vs %v µs", a, b)
	}
}

// TestAppsSweepShardingInvariance pins the harness-wide ParallelMap
// contract for the apps sweep: the sharded sweep's cells equal the same
// measurements taken sequentially on a single-proc host, bit for bit.
func TestAppsSweepShardingInvariance(t *testing.T) {
	cfg := scc.DefaultConfig()
	par := AppsSweep(cfg, 1)
	topo := AppsMeshes(1)[0] // the quick tier sweeps one mesh

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range par {
		var tr *workload.Trace
		if p.Mesh != meshName(topo) || p.Cores != topo.NumCores() {
			t.Fatalf("sweep cell on %s (%d cores), want %s", p.Mesh, p.Cores, topo)
		}
		for _, k := range workload.Kernels(p.Cores) {
			if k.Name == p.Kernel {
				tr = k.Trace
			}
		}
		if tr == nil {
			t.Fatalf("sweep reported unknown kernel %q", p.Kernel)
		}
		if seq := MeasureApp(cfg, topo, tr, ""); seq != p.DefaultUs {
			t.Errorf("%s default: parallel %v vs sequential %v µs", p.Kernel, p.DefaultUs, seq)
		}
		if seq := MeasureApp(cfg, topo, tr, "auto"); seq != p.AutoUs {
			t.Errorf("%s auto: parallel %v vs sequential %v µs", p.Kernel, p.AutoUs, seq)
		}
	}
}

// TestSGDReplayGolden pins the 48-core data-parallel SGD kernel under the
// paper-default stacks to its exact simulated makespan. The value moves
// only when the simulator's timing model or the replay contract changes —
// both of which should be deliberate, reviewed events.
func TestSGDReplayGolden(t *testing.T) {
	cfg := scc.DefaultConfig()
	sgd := workload.Kernels(scc.NumCores)[0]
	if sgd.Name != "sgd" {
		t.Fatalf("kernel order changed: first kernel is %q", sgd.Name)
	}
	const want = 35904.750200000002
	if got := MeasureApp(cfg, scc.SCC(), sgd.Trace, ""); got != want {
		t.Errorf("48-core SGD default makespan = %.17g µs, golden %.17g", got, want)
	}
}

// TestReplayPendingIndexWork pins the work the MPBs' pending-write
// indexes do for one kernel replay — deterministic counts, so a
// regression in scanning work fails here where a wall clock never would.
// A read that finds unfolded writes on its line should examine little
// more than one record: queued flag writes are found through their line,
// not by walking every other line's unread flags (34 records per read on
// the benchmark's replay before the queues). The shuffle makes no
// queue→list moves; a kernel that does (sgd's long RCCE payloads land on
// a finished lane's unread flags, legally, behind a barrier) scans those
// lines through the list and is logged, not gated.
func TestReplayPendingIndexWork(t *testing.T) {
	cfg := scc.DefaultConfig()
	for _, k := range workload.Kernels(8) {
		var w chipWork
		replayChip(cfg, 8, k.Trace, &w)
		st := w.pending
		t.Logf("%s: %+v", k.Name, st)
		if k.Name != "shuffle" {
			continue
		}
		want := mem.PendingStats{Reads: 6108, Visited: 7607, Queued: 2923, Listed: 458, Moves: 0, Sweeps: 22}
		if st != want {
			t.Errorf("shuffle on 8 cores: index work %+v, pinned %+v", st, want)
		}
		if 2*st.Visited > 3*st.Reads {
			t.Errorf("shuffle on 8 cores: %d records visited by %d reads, want ≤ 1.5 per read", st.Visited, st.Reads)
		}
	}
}
