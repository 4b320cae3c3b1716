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
		OC: occore.DefaultConfig(), Lines: 96,
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
// Measured 20 (39 while request frames, request lists and lane programs
// came one `make` per core; 53 with a port and an engine object per
// core).
func TestAllocsPerOverlapRun(t *testing.T) {
	cell := harness.Cell{
		Cfg: scc.DefaultConfig(), N: 8, Op: workload.OpAllReduce, Choice: algsel.Choice{Alg: "oc"},
		OC: occore.DefaultConfig(), Lines: 64, Overlap: true,
	}
	run := func() { harness.Grid([]harness.Cell{cell}) }
	run() // warm the chip pool
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 25 {
		t.Errorf("warmed overlap run allocates %.0f times, budget 25", allocs)
	}
	t.Logf("allocs per warmed overlap run: %.0f", allocs)
}

// TestAllocsPerReplayBudget pins the replay hot loop: a warmed
// 1000-record mixed-op replay — every collective family, blocking and
// overlapped records — on a pooled 8-core chip must stay within 32
// allocations (25 measured; 122 while sequence tables, call schedules,
// request frames and lane programs came one `make` per core, 130 while
// the two-sided combines staged through a buffer of their own, 177 when
// each core built its stack and its record adapter one object at a
// time). The entire per-record path (replayer loop, algorithm dispatch,
// two-sided handshakes and combines, non-blocking issue/test/wait) is
// allocation-free in steady state; the budget covers only the per-run
// fixtures (the slice of per-core stacks, the blocks of their shared
// storage, results).
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
	if allocs > 32 {
		t.Errorf("warmed 1000-record replay allocates %.0f times, budget 32", allocs)
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
// replica state, collected metrics): 219 measured (289 while the stacks'
// growth came one `make` per core, 327 with a stack built one object at
// a time), 274 allowed.
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
	if allocs > 274 {
		t.Errorf("warmed 60-request serving run allocates %.0f times, budget 274", allocs)
	}
	t.Logf("allocs per warmed serving run: %.0f", allocs)
}

// TestPerCoreAllocsFlatInChipSize pins the simulator's cost curve and the
// cold path's absolute cost: a fresh System running one barrier and one
// 96-line OC-Bcast must allocate on a 384-core mesh at most 1.1x the
// objects it allocates on the paper's 48-core chip in total — a cold
// run's object count does not grow with the number of cores, since
// every per-core table, buffer and page comes in blocks from the chip's
// storage (mem.Slab, the run's algsel.Shared) — and per core within 3 %
// of the bytes (per-core-id tables inside per-core state, the MPB port
// accounting before the ledger, read 1.58x). At either size it may
// allocate no more than 100 objects (83 and 85 measured; 86 and 88 while
// every core held its own pages; 5.2 and 4.3 per core, 250 and 1 650 in
// all, while pages, staging and extent buffers, ledger growth and
// residency tables came one `make` per core; 44.0 per core when every
// core's state was built one `new` at a time), nor more than 21 000 bytes
// per core (16 829 measured: the payload is zeros, and an all-zero page
// is no page; 25 140 while every core wrote its own, 28 443 before that,
// 28 190 when each core's state was its own objects), so that shared
// storage stays sized by demand.
func TestPerCoreAllocsFlatInChipSize(t *testing.T) {
	const maxObjects, maxBytes = 100, 21000
	cold := func(opts ocbcast.Options) (objects, bytesPerCore float64) {
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
		return objects, float64(total) / float64(n)
	}
	obj48, bytes48 := cold(ocbcast.Options{})
	obj384, bytes384 := cold(ocbcast.Options{MeshWidth: 16, MeshHeight: 12})
	t.Logf("%.0f objects, %.0f bytes per core at 48 cores; %.0f objects (%.3fx), %.0f bytes per core (%.3fx) at 384",
		obj48, bytes48, obj384, obj384/obj48, bytes384, bytes384/bytes48)
	if obj384 > 1.1*obj48 {
		t.Errorf("allocations grow with the chip: %.0f objects at 384 cores vs %.0f at 48 (%.3fx, limit 1.1x)", obj384, obj48, obj384/obj48)
	}
	if bytes384 > 1.03*bytes48 {
		t.Errorf("allocated bytes per core grow with the chip: %.0f at 384 cores vs %.0f at 48 (%.3fx, limit 1.03x)", bytes384, bytes48, bytes384/bytes48)
	}
	for _, m := range []struct {
		cores          int
		objects, bytes float64
	}{{48, obj48, bytes48}, {384, obj384, bytes384}} {
		if m.objects > maxObjects {
			t.Errorf("a cold %d-core barrier+broadcast allocates %.0f objects, ceiling %d", m.cores, m.objects, maxObjects)
		}
		if m.bytes > maxBytes {
			t.Errorf("a cold %d-core barrier+broadcast allocates %.0f bytes per core, ceiling %d", m.cores, m.bytes, maxBytes)
		}
	}
}
