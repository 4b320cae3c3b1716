package serve

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// The scheduler property tests run the real replica against an
// in-memory fake chip: a single "core" whose clock advances by a
// synthetic latency per collective, with non-blocking issues completing
// at issue-time + latency (so lanes genuinely overlap). The properties
// are the satellite contract: no starvation under weighted fairness,
// batching never reorders a tenant's requests, admission rejects
// exactly when the bound is hit.

type fakePending struct {
	f       *fakeRunner
	readyUs float64
}

func (p *fakePending) Test() bool { return p.f.clock >= p.readyUs }
func (p *fakePending) Wait() {
	if p.f.clock < p.readyUs {
		p.f.clock = p.readyUs
	}
}

type fakeRunner struct {
	clock  float64
	syncUs float64
	latUs  func(op string, lines int) float64
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{
		syncUs: 1,
		latUs: func(op string, lines int) float64 {
			base := 5.0
			if workload.OpOf(op).Blocks {
				base = 8
			}
			return base + float64(lines)*0.25
		},
	}
}

func (f *fakeRunner) ID() int            { return 0 }
func (f *fakeRunner) NowUs() float64     { return f.clock }
func (f *fakeRunner) Compute(us float64) { f.clock += us }
func (f *fakeRunner) SyncMaxUs() float64 {
	f.clock += f.syncUs
	return f.clock
}
func (f *fakeRunner) Run(op string, root, addr, scratch, lines int) {
	f.clock += f.latUs(op, lines)
}
func (f *fakeRunner) Issue(op string, root, addr, lines int) Pending {
	return &fakePending{f: f, readyUs: f.clock + f.latUs(op, lines)}
}

// runFake executes a mix on the fake chip and returns the replica and
// board for inspection.
func runFake(t *testing.T, cfg Config, streams []Stream) (*Sched, *Board) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	if err := ValidateStreams(streams, 1<<20); err != nil {
		t.Fatalf("streams: %v", err)
	}
	l := LayoutFor(cfg, streams, 8)
	b := NewBoard(streams)
	s := Run(newFakeRunner(), cfg, streams, l, b, nil)
	s.sanity()
	return s, b
}

// identicalReqs builds n identical zero-gap requests.
func identicalReqs(op string, lines, n int) []Req {
	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{Op: op, Lines: lines}
	}
	return reqs
}

func TestBatchCoalescesCompatibleRequests(t *testing.T) {
	cfg := Config{MaxBatch: 4, MaxBatchLines: 1 << 10, Lanes: 1}
	streams := []Stream{{Tenant: "a", Reqs: identicalReqs(workload.OpAllReduce, 16, 6)}}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	if res.Completed != 6 || res.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want 6/0", res.Completed, res.Rejected)
	}
	// All six arrive at time zero; MaxBatch 4 forces batches of 4 then 2.
	if res.Batches != 2 {
		t.Fatalf("batches %d, want 2 (4+2 coalescing)", res.Batches)
	}
	if res.BatchOccupancy != 3 {
		t.Fatalf("occupancy %v, want 3", res.BatchOccupancy)
	}
}

func TestBatchRespectsLineCap(t *testing.T) {
	cfg := Config{MaxBatch: 8, MaxBatchLines: 250, Lanes: 1}
	streams := []Stream{{Tenant: "a", Reqs: identicalReqs(workload.OpBcast, 100, 4)}}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	// 100+100 fits under 250, a third would not: two batches of two.
	if res.Batches != 2 || res.Completed != 4 {
		t.Fatalf("batches %d completed %d, want 2/4", res.Batches, res.Completed)
	}
}

func TestOversizedRequestDispatchesAlone(t *testing.T) {
	cfg := Config{MaxBatch: 8, MaxBatchLines: 64, Lanes: 2}
	streams := []Stream{{Tenant: "a", Reqs: []Req{
		{Op: workload.OpAllReduce, Lines: 1000},
		{Op: workload.OpAllReduce, Lines: 8},
	}}}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	if res.Completed != 2 {
		t.Fatalf("completed %d, want 2 (oversized request must still run)", res.Completed)
	}
	if res.Batches != 2 {
		t.Fatalf("batches %d, want 2 (1000-line head admits no companion)", res.Batches)
	}
}

func TestBatchingNeverMixesIncompatibleRequests(t *testing.T) {
	cfg := Config{MaxBatch: 8, Lanes: 1}
	streams := []Stream{{Tenant: "a", Reqs: []Req{
		{Op: workload.OpBcast, Root: 0, Lines: 4},
		{Op: workload.OpBcast, Root: 1, Lines: 4}, // same op, different root
		{Op: workload.OpReduce, Root: 0, Lines: 4},
	}}}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	if res.Batches != 3 {
		t.Fatalf("batches %d, want 3 (no two requests are compatible)", res.Batches)
	}
}

// TestAdmissionRejectsExactlyAtBound is the admission property: a burst
// of offered = bound + k simultaneous arrivals admits exactly bound and
// rejects exactly the last k, in stream order.
func TestAdmissionRejectsExactlyAtBound(t *testing.T) {
	const bound, extra = 6, 4
	cfg := Config{QueueBound: bound, MaxBatch: 1, Lanes: 1}
	streams := []Stream{{Tenant: "a", Reqs: identicalReqs(workload.OpAllReduce, 4, bound+extra)}}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	if res.Admitted != bound || res.Rejected != extra || res.Completed != bound {
		t.Fatalf("admitted/rejected/completed %d/%d/%d, want %d/%d/%d",
			res.Admitted, res.Rejected, res.Completed, bound, extra, bound)
	}
	for i := 0; i < bound+extra; i++ {
		want := "done"
		if i >= bound {
			want = "rejected"
		}
		if got := s.State(i); got != want {
			t.Fatalf("request %d state %q, want %q", i, got, want)
		}
	}
}

// TestAdmissionReadmitsAfterDrain: a queue that fills, drains and fills
// again rejects only while full — the bound is a queue depth, not a
// lifetime cap.
func TestAdmissionReadmitsAfterDrain(t *testing.T) {
	cfg := Config{QueueBound: 2, MaxBatch: 1, Lanes: 1}
	reqs := []Req{
		{Op: workload.OpBcast, Lines: 4},             // t=0
		{Op: workload.OpBcast, Lines: 4},             // t=0
		{Op: workload.OpBcast, Lines: 4, GapUs: 1e6}, // long idle, queue drained
		{Op: workload.OpBcast, Lines: 4},             // t=1e6
	}
	s, b := runFake(t, cfg, []Stream{{Tenant: "a", Reqs: reqs}})
	res := Collect(s, b)
	if res.Rejected != 0 || res.Completed != 4 {
		t.Fatalf("rejected %d completed %d, want 0/4", res.Rejected, res.Completed)
	}
	_ = s
}

// randomStream builds a seeded random stream whose requests mix all six
// operations, sizes and bursty gaps.
func randomStream(rng *rand.Rand, tenant string, weight, n int) Stream {
	ops := workload.Ops()
	s := Stream{Tenant: tenant, Weight: weight, Reqs: make([]Req, n)}
	for i := range s.Reqs {
		op := ops[rng.Intn(len(ops))]
		r := Req{Op: op, Lines: 1 + rng.Intn(64)}
		if workload.OpOf(op).Rooted {
			r.Root = rng.Intn(8)
		}
		if rng.Intn(3) > 0 { // bursts: two thirds arrive back-to-back
			r.GapUs = rng.Float64() * 40
		}
		s.Reqs[i] = r
	}
	return s
}

// TestNoStarvationWeighted is the starvation property: under weighted
// fairness with wildly skewed weights and an unbounded queue, every
// admitted request completes — heavy tenants cannot shut light ones
// out.
func TestNoStarvationWeighted(t *testing.T) {
	weights := []int{32, 16, 4, 1, 1}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var streams []Stream
		for i, w := range weights {
			streams = append(streams, randomStream(rng, "t"+string(rune('a'+i)), w, 40))
		}
		cfg := Config{Policy: PolicyWeighted, QueueBound: MaxQueueBound, MaxBatch: 4, Lanes: 3}
		s, b := runFake(t, cfg, streams)
		res := Collect(s, b)
		if res.Rejected != 0 {
			t.Fatalf("seed %d: %d rejected under an unbounded queue", seed, res.Rejected)
		}
		if res.Completed != res.Offered {
			t.Fatalf("seed %d: %d of %d offered requests completed — starvation",
				seed, res.Completed, res.Offered)
		}
		for id := range b.DoneUs {
			if s.State(id) != "done" {
				t.Fatalf("seed %d: request %d ended %q, want done", seed, id, s.State(id))
			}
		}
	}
}

// TestWeightedSharesFollowWeights checks stride scheduling's share
// property on a saturated incompatible-op mix: dispatch counts track
// the 3:1 weights while both tenants stay backlogged.
func TestWeightedSharesFollowWeights(t *testing.T) {
	streams := []Stream{
		{Tenant: "heavy", Weight: 3, Reqs: identicalReqs(workload.OpBcast, 4, 90)},
		{Tenant: "light", Weight: 1, Reqs: identicalReqs(workload.OpReduce, 4, 90)},
	}
	cfg := Config{Policy: PolicyWeighted, QueueBound: MaxQueueBound, MaxBatch: 1, Lanes: 1}
	s, b := runFake(t, cfg, streams)
	res := Collect(s, b)
	if res.Completed != 180 {
		t.Fatalf("completed %d, want 180", res.Completed)
	}
	// While both queues were backlogged, heavy should have dispatched
	// ~3x light. Compare completion clocks of the tenants' 30th
	// requests: heavy's should come far earlier.
	h30 := b.DoneUs[s.Offset(0)+29]
	l30 := b.DoneUs[s.Offset(1)+29]
	if h30 >= l30 {
		t.Fatalf("heavy's 30th done at %v, light's at %v — weights not honored", h30, l30)
	}
}

// TestBatchingPreservesTenantOrder is the ordering property: across
// policies, lane counts and seeds, a tenant's requests complete in
// stream order (batches only ever take queue prefixes).
func TestBatchingPreservesTenantOrder(t *testing.T) {
	for _, policy := range []string{PolicyRoundRobin, PolicyWeighted} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed * 100))
			streams := []Stream{
				randomStream(rng, "a", 4, 50),
				randomStream(rng, "b", 2, 50),
				randomStream(rng, "c", 1, 50),
			}
			cfg := Config{Policy: policy, QueueBound: 16, MaxBatch: 6, Lanes: 3}
			s, _ := runFake(t, cfg, streams)
			last := map[int32]int32{}
			for _, id := range s.DoneOrder() {
				tn := s.tenantOf[id]
				if prev, ok := last[tn]; ok && id <= prev {
					t.Fatalf("policy %s seed %d: tenant %d completed request %d after %d — reordered",
						policy, seed, tn, id, prev)
				}
				last[tn] = id
			}
		}
	}
}

// TestDeterministicReplicas: two runs of the same mix produce
// byte-identical fingerprints, and every request ends in a final state.
func TestDeterministicReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	streams := []Stream{
		randomStream(rng, "a", 3, 60),
		randomStream(rng, "b", 1, 60),
	}
	cfg := Config{Policy: PolicyWeighted, QueueBound: 8, MaxBatch: 4, Lanes: 2}
	s1, b1 := runFake(t, cfg, streams)
	s2, b2 := runFake(t, cfg, streams)
	f1, f2 := Collect(s1, b1).Fingerprint(), Collect(s2, b2).Fingerprint()
	if f1 != f2 {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", f1, f2)
	}
}

func TestLayoutSizing(t *testing.T) {
	cfg := Config{MaxBatchLines: 64, Lanes: 2}
	streams := []Stream{{Tenant: "a", Reqs: []Req{
		{Op: workload.OpAllReduce, Lines: 100}, // linear: max(100, 64) = 100
		{Op: workload.OpAllGather, Lines: 8},   // block: 8*max(8,64) = 512
	}}}
	l := LayoutFor(cfg, streams, 8)
	if want := 512 * 32; l.SlotBytes != want {
		t.Fatalf("slot bytes %d, want %d", l.SlotBytes, want)
	}
	if l.Slots != 4 {
		t.Fatalf("slots %d, want lanes+2 = 4", l.Slots)
	}
	if l.CtrlAddr != 5*l.SlotBytes {
		t.Fatalf("ctrl addr %d, want %d", l.CtrlAddr, 5*l.SlotBytes)
	}
	if l.TotalBytes() != 5*l.SlotBytes+32 {
		t.Fatalf("total %d, want %d", l.TotalBytes(), 5*l.SlotBytes+32)
	}
}

func TestConfigAndStreamValidation(t *testing.T) {
	bad := []Config{
		{Policy: "fifo"},
		{QueueBound: -1},
		{MaxBatch: MaxMaxBatch + 1},
		{MaxBatchLines: workload.MaxLines + 1},
		{Lanes: MaxLanes + 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d (%+v) validated", i, c)
		}
	}
	ok := Req{Op: workload.OpBcast, Lines: 1}
	badStreams := [][]Stream{
		nil,
		{{Tenant: "", Reqs: []Req{ok}}},
		{{Tenant: "a b", Reqs: []Req{ok}}},
		{{Tenant: "a", Reqs: []Req{ok}}, {Tenant: "a", Reqs: []Req{ok}}},
		{{Tenant: "a", Weight: -1, Reqs: []Req{ok}}},
		{{Tenant: "a"}},
		{{Tenant: "a", Reqs: []Req{{Op: "alltoall", Lines: 1}}}},
		{{Tenant: "a", Reqs: []Req{{Op: workload.OpBcast, Root: 8, Lines: 1}}}},
	}
	for i, ss := range badStreams {
		if err := ValidateStreams(ss, 8); err == nil {
			t.Fatalf("streams %d validated", i)
		}
	}
	good := []Stream{{Tenant: "a-1.b_c", Weight: 5, Reqs: []Req{ok}}}
	if err := ValidateStreams(good, 8); err != nil {
		t.Fatalf("good streams rejected: %v", err)
	}
}
