// Allocation-budget regression tests for the simulator hot paths. The
// warmed budgets (pooled chips) pin the steady-state contract of the
// allocation-free-hot-path work at 1.25x what the runs measure — the
// counts repeat exactly but for a handful of runtime-internal objects —
// so they catch a regression that reintroduces per-line, per-op or
// per-core allocation. TestPerCoreAllocsFlatInChipSize pins the cold
// path, a fresh System per simulation, which is what the repository's
// benchmark and every public-API user pay.
package ocbcast_test

import (
	"runtime"
	"testing"

	ocbcast "repro"
	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestAllocsPerBroadcastBudget pins the hot-path allocation budget: one
// warmed 48-core, 96-line OC-Bcast simulation — chip acquisition,
// barrier, broadcast, release — must stay within 18 heap allocations
// (the seed code performed ~2268; 301 before per-core protocol state
// stopped making maps and tables it never uses, 108 while each core built
// its port and broadcaster one object at a time, 14 since every core's
// stack is one algsel.Env in a per-run slice). Allocations per public-API
// op are the benchmark's allocs_per_op (bench/README.md).
func TestAllocsPerBroadcastBudget(t *testing.T) {
	cell := harness.Cell{
		Cfg: scc.DefaultConfig(), Op: workload.OpBcast, Choice: algsel.Choice{Alg: "ocbcast"},
		OC: occore.DefaultConfig(), Lines: 96, Reps: 1,
	}
	run := func() { harness.Grid([]harness.Cell{cell}) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 18 {
		t.Errorf("a warmed broadcast cell allocates %.0f times per broadcast, budget 18", allocs)
	}
	t.Logf("allocs per warmed broadcast: %.0f", allocs)
}

// TestAllocsPerOverlapRun pins the non-blocking lane protocol: a warmed
// issue+progress+wait allreduce cycle (request frames, lane records and
// their instruction buffers) must not regress to per-step allocation.
// Measured 39 when the budget was set (53 with a port and an engine
// object per core).
func TestAllocsPerOverlapRun(t *testing.T) {
	cell := harness.Cell{
		Cfg: scc.DefaultConfig(), N: 8, Op: workload.OpAllReduce, Choice: algsel.Choice{Alg: "oc"},
		OC: occore.DefaultConfig(), Lines: 64, Reps: 1, Overlap: true,
	}
	run := func() { harness.Grid([]harness.Cell{cell}) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 49 {
		t.Errorf("warmed overlap run allocates %.0f times, budget 49", allocs)
	}
	t.Logf("allocs per warmed overlap run: %.0f", allocs)
}

// TestAllocsPerReplayBudget pins the replay hot loop: a warmed
// 1000-record mixed-op replay — every collective family, blocking and
// overlapped records — on a pooled 8-core chip must stay within 152
// allocations (122 measured; 130 while the two-sided combines staged
// through a buffer of their own, 177 when each core built its stack and
// its record adapter one object at a time). The entire per-record path
// (replayer loop, algorithm dispatch, two-sided handshakes and combines,
// non-blocking issue/test/wait) is allocation-free in steady state; the
// budget covers only the per-run fixtures (the slice of per-core stacks,
// collective call schedules, lane buffers, results).
//
// The same replay pins the goroutine handoffs (sim.Engine.Resumes): each
// two-sided collective and each one-sided lane begin is one machine
// section, so a record parks a core's body goroutine about once. It
// measured 73 081 resumes (179 036 switches) while every send, receive,
// turn grant, shape fence and combine was a section of its own, and
// 19 162 (the same 179 036 switches) since; the limit is 40 % of the
// former.
func TestAllocsPerReplayBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n, records = 8, 1000
	ops := workload.Ops()
	tr := &workload.Trace{}
	for i := 0; i < records; i++ {
		r := workload.Record{Op: ops[i%len(ops)], Root: (i * 5) % n, Lines: 1 + i%4}
		if i%5 == 2 {
			r.ComputeUs = 3.5
		}
		tr.Records = append(tr.Records, r)
	}
	if err := tr.ValidateFor(n); err != nil {
		t.Fatal(err)
	}
	run := func() { harness.ReplayChip(cfg, n, tr) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 152 {
		t.Errorf("warmed 1000-record replay allocates %.0f times, budget 152", allocs)
	}
	t.Logf("allocs per warmed 1000-record replay: %.0f (%.2f per record)", allocs, allocs/records)

	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)
	r0, s0 := chip.Engine.Resumes(), chip.Engine.Switches()
	l := workload.LayoutFor(tr, n)
	algsel.OnChip(chip, occore.DefaultConfig(), func(e *algsel.Env) {
		workload.Replay(algsel.Replayer{E: e}, tr, l, workload.ReplayOptions{})
	})
	resumes, switches := chip.Engine.Resumes()-r0, chip.Engine.Switches()-s0
	const limit = 73081 * 4 / 10
	if resumes > limit {
		t.Errorf("1000-record replay resumes a body %d times, limit %d", resumes, limit)
	}
	t.Logf("resumes per 1000-record replay: %d (%.2f per record), switches %d", resumes, float64(resumes)/records, switches)
}

// TestTuneCacheHitAllocs pins the Tune memo: a cache hit is a key build
// plus a map probe, far under a full grid-and-bisection sweep.
func TestTuneCacheHitAllocs(t *testing.T) {
	cfg := scc.DefaultConfig()
	base := occore.DefaultConfig()
	topo := cfg.Topology()
	warm := algsel.TuneCached(cfg.Params, topo, scc.NumCores, base)
	if warm == nil {
		t.Fatal("TuneCached returned nil plan")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if algsel.TuneCached(cfg.Params, topo, scc.NumCores, base) != warm {
			t.Fatal("cache hit returned a different plan pointer")
		}
	})
	// The only allocation on a hit is the topology fingerprint string.
	if allocs > 2 {
		t.Errorf("Tune cache hit allocates %.1f times, budget 2", allocs)
	}
}

// TestAllocsPerServeBudget pins the serving runtime's steady state: a
// warmed 60-request two-tenant serving run on a pooled 8-core chip —
// epoch syncs, admission, batching, dispatch over two lanes, completion
// accounting — must stay within budget. The scheduler replica allocates
// everything up front (newSched) and the round loop is allocation-free;
// the budget covers only per-run fixtures (per-core stacks and runners,
// replica state, collected metrics): 289 measured (327 with a stack built
// one object at a time), 362 allowed.
func TestAllocsPerServeBudget(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n = 8
	scfg := serve.Config{Policy: serve.PolicyWeighted, QueueBound: 16, MaxBatch: 4, MaxBatchLines: 64, Lanes: 2}
	streams := []serve.Stream{
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "a", Weight: 3, Seed: 1, Count: 30, N: n,
			Ops: workload.Ops(), Lines: []int{1, 4, 8}, MeanGapUs: 40,
		}),
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "b", Weight: 1, Seed: 2, Count: 30, N: n,
			Ops: []string{workload.OpBcast, workload.OpAllReduce}, Lines: []int{2, 16}, MeanGapUs: 25,
		}),
	}
	run := func() { harness.ServeChip(cfg, n, scfg, streams) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 362 {
		t.Errorf("warmed 60-request serving run allocates %.0f times, budget 362", allocs)
	}
	t.Logf("allocs per warmed serving run: %.0f", allocs)
}

// TestPerCoreAllocsFlatInChipSize pins the simulator's cost curve and the
// cold path's absolute cost: a fresh System running one barrier and one
// 96-line OC-Bcast must allocate per core on a 384-core mesh what it
// allocates per core on the paper's 48-core chip, in objects and in
// bytes, within 3 % — per-core-id tables inside per-core state (the MPB
// port accounting before the ledger) make both ratios grow with the chip
// (1.09x objects and 1.58x bytes with those tables; 1.01x for both
// without) — and at either size no more than 20 objects per core (44.0
// when every core's state was built one `new` at a time; 5.2 since chips
// are arrays of values over shared backing and bodies run on pooled
// coroutines: a data page, an extent buffer, a scratch buffer, a
// residency table) nor more
// than 28 750 bytes per core: 2 % over the 28 190 the one-object-at-a-
// time construction cost, so that shared backing stays sized by demand.
// A fixed reserve per core (16 extent records and 64 list slots each,
// say) reads 31 300 here.
func TestPerCoreAllocsFlatInChipSize(t *testing.T) {
	const maxObjects, maxBytes = 20, 28750
	perCore := func(opts ocbcast.Options) (objects, bytes float64) {
		var n int
		op := func() {
			sys := ocbcast.New(opts)
			n = sys.N()
			sys.Run(func(c *ocbcast.Core) {
				c.Barrier()
				c.Broadcast(0, 0, 96)
			})
		}
		// AllocsPerRun warms process-wide caches (tuning plans, runtime
		// pools) with one extra call and pins GOMAXPROCS to 1.
		objects = testing.AllocsPerRun(3, op)
		// Bytes: the smallest of three ops, since whatever else the
		// process allocates meanwhile is counted too.
		total := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			total = min(total, after.TotalAlloc-before.TotalAlloc)
		}
		return objects / float64(n), float64(total) / float64(n)
	}
	obj48, bytes48 := perCore(ocbcast.Options{})
	obj384, bytes384 := perCore(ocbcast.Options{MeshWidth: 16, MeshHeight: 12})
	t.Logf("per core: %.1f objects, %.0f bytes at 48 cores; %.1f objects (%.3fx), %.0f bytes (%.3fx) at 384",
		obj48, bytes48, obj384, obj384/obj48, bytes384, bytes384/bytes48)
	if obj384 > 1.03*obj48 {
		t.Errorf("allocations per core grow with the chip: %.1f at 384 cores vs %.1f at 48 (%.3fx, limit 1.03x)", obj384, obj48, obj384/obj48)
	}
	if bytes384 > 1.03*bytes48 {
		t.Errorf("allocated bytes per core grow with the chip: %.0f at 384 cores vs %.0f at 48 (%.3fx, limit 1.03x)", bytes384, bytes48, bytes384/bytes48)
	}
	for _, m := range []struct {
		cores          int
		objects, bytes float64
	}{{48, obj48, bytes48}, {384, obj384, bytes384}} {
		if m.objects > maxObjects {
			t.Errorf("a cold %d-core barrier+broadcast allocates %.1f objects per core, ceiling %d", m.cores, m.objects, maxObjects)
		}
		if m.bytes > maxBytes {
			t.Errorf("a cold %d-core barrier+broadcast allocates %.0f bytes per core, ceiling %d", m.cores, m.bytes, maxBytes)
		}
	}
}
