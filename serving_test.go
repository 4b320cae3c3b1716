package ocbcast_test

import (
	"math/rand"
	"strings"
	"testing"

	ocbcast "repro"
	"repro/internal/workload"
)

// The serving runtime's end-to-end contract on the real simulator:
// determinism (two Serves of the same mix are byte-identical — the
// conformance half of the test harness), robustness under -race with
// many tenants sharing few lanes (the stress half, wired into the CI
// race step), tracing parity, and the public validation surface.

// servingOptions is the stress-geometry chip: four MPB lanes need a
// smaller chunk than the paper's 96 to fit the per-core MPB share.
func servingOptions(cores int) ocbcast.Options {
	return ocbcast.Options{Cores: cores, Channels: 4, ChunkLines: 16}
}

// servingMix builds a seeded random tenant mix: every op, bursty gaps,
// skewed weights.
func servingMix(seed int64, tenants, reqs, n int) []ocbcast.ServeStream {
	rng := rand.New(rand.NewSource(seed))
	ops := workload.Ops()
	streams := make([]ocbcast.ServeStream, tenants)
	for t := range streams {
		s := ocbcast.ServeStream{
			Tenant: "tenant-" + string(rune('a'+t)),
			Weight: 1 << (t % 4),
			Reqs:   make([]ocbcast.ServeRequest, reqs),
		}
		for i := range s.Reqs {
			op := ops[rng.Intn(len(ops))]
			r := ocbcast.ServeRequest{Op: op, Lines: 1 + rng.Intn(12)}
			switch op {
			case workload.OpBcast, workload.OpReduce, workload.OpScatter, workload.OpGather:
				r.Root = rng.Intn(n)
			}
			if rng.Intn(3) > 0 {
				r.GapUs = rng.Float64() * 30
			}
			s.Reqs[i] = r
		}
		streams[t] = s
	}
	return streams
}

func serveOnce(t *testing.T, opts ocbcast.Options, cfg ocbcast.ServeConfig, streams []ocbcast.ServeStream) ocbcast.ServeStats {
	t.Helper()
	sys := ocbcast.New(opts)
	res, err := sys.Serve(cfg, streams)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return res
}

// TestServingConformance is the determinism suite: the same seeded mix
// served twice on fresh equal Systems yields byte-identical stats —
// every completion clock, every counter — across policies and both
// algorithm modes.
func TestServingConformance(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    string
		algorithm string
	}{
		{"rr-default", ocbcast.PolicyRoundRobin, ""},
		{"wrr-default", ocbcast.PolicyWeighted, ""},
		{"wrr-auto", ocbcast.PolicyWeighted, "auto"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := servingOptions(8)
			opts.Algorithm = tc.algorithm
			cfg := ocbcast.ServeConfig{Policy: tc.policy, QueueBound: 16, MaxBatch: 4, MaxBatchLines: 64}
			streams := servingMix(42, 4, 20, 8)
			a := serveOnce(t, opts, cfg, streams)
			b := serveOnce(t, opts, cfg, streams)
			fa, fb := a.Fingerprint(), b.Fingerprint()
			if fa != fb {
				t.Fatalf("two identical serving runs diverged:\n%s\nvs\n%s", fa, fb)
			}
			if a.Completed+a.Rejected != a.Offered {
				t.Fatalf("accounting: %d completed + %d rejected != %d offered",
					a.Completed, a.Rejected, a.Offered)
			}
			if a.Completed == 0 || a.ThroughputRps <= 0 {
				t.Fatalf("no service: completed=%d throughput=%v", a.Completed, a.ThroughputRps)
			}
			for _, tm := range a.Tenants {
				if tm.Completed+tm.Rejected != tm.Offered {
					t.Fatalf("tenant %s accounting: %d+%d != %d", tm.Tenant, tm.Completed, tm.Rejected, tm.Offered)
				}
				if tm.Completed > 0 && (tm.P50Us <= 0 || tm.P99Us < tm.P50Us) {
					t.Fatalf("tenant %s latency shape: p50=%v p99=%v", tm.Tenant, tm.P50Us, tm.P99Us)
				}
			}
		})
	}
}

// TestServingStress pushes 8 tenants through 4 channels on a 16-core
// chip — the scheduler replicas, the progress engine's concurrent lanes
// and the shared completion board all under load. The CI race step runs
// it under -race.
func TestServingStress(t *testing.T) {
	cfg := ocbcast.ServeConfig{Policy: ocbcast.PolicyWeighted, QueueBound: 32, MaxBatch: 6, MaxBatchLines: 96}
	streams := servingMix(7, 8, 25, 16)
	res := serveOnce(t, servingOptions(16), cfg, streams)
	if res.Offered != 8*25 {
		t.Fatalf("offered %d, want 200", res.Offered)
	}
	if res.Completed+res.Rejected != res.Offered {
		t.Fatalf("accounting: %d+%d != %d", res.Completed, res.Rejected, res.Offered)
	}
	if res.Completed < res.Offered/2 {
		t.Fatalf("only %d of %d requests served", res.Completed, res.Offered)
	}
	if res.Batches == 0 || res.BatchOccupancy < 1 {
		t.Fatalf("batching shape: batches=%d occupancy=%v", res.Batches, res.BatchOccupancy)
	}
	for i, us := range res.DoneUs {
		if us < 0 {
			t.Fatalf("request %d completed at negative time %v", i, us)
		}
	}
}

// TestServingTrace checks the observability contract: tracing changes
// nothing about the result, and the timeline carries the serve span
// families (round instants, queue counters, async batch spans, summary
// counters) and still validates.
func TestServingTrace(t *testing.T) {
	cfg := ocbcast.ServeConfig{Policy: ocbcast.PolicyWeighted, QueueBound: 8, MaxBatch: 4}
	streams := servingMix(11, 3, 12, 8)

	plain := serveOnce(t, servingOptions(8), cfg, streams)

	opts := servingOptions(8)
	opts.Trace = true
	sys := ocbcast.New(opts)
	traced, err := sys.Serve(cfg, streams)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if plain.Fingerprint() != traced.Fingerprint() {
		t.Fatal("tracing changed the serving outcome")
	}

	tl := sys.Timeline()
	if tl == nil {
		t.Fatal("no timeline with tracing on")
	}
	if err := tl.Validate(); err != nil {
		t.Fatalf("timeline invalid: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tl.Events {
		names[ev.Cat+"/"+ev.Name] = true
	}
	for _, want := range []string{"serve/round", "serve/batch",
		"serve/" + streams[0].Tenant, "serve.summary/" + streams[0].Tenant + "/completed"} {
		if !names[want] {
			t.Fatalf("no %q events on the timeline", want)
		}
	}
}

// TestServeSpecRoundTripPublic exercises the public spec surface:
// format → parse → serve runs the same mix as serving the structs
// directly.
func TestServeSpecRoundTripPublic(t *testing.T) {
	cfg := ocbcast.ServeConfig{Policy: ocbcast.PolicyWeighted, QueueBound: 8, MaxBatch: 4, Lanes: 2}
	streams := servingMix(3, 2, 8, 8)
	text := ocbcast.FormatServeSpec(cfg, streams)
	cfg2, streams2, err := ocbcast.ParseServeSpec(text)
	if err != nil {
		t.Fatalf("ParseServeSpec: %v\n%s", err, text)
	}
	a := serveOnce(t, servingOptions(8), cfg, streams)
	b := serveOnce(t, servingOptions(8), cfg2, streams2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("spec round-trip changed the serving outcome")
	}
}

// TestServeValidation covers the public error surface.
func TestServeValidation(t *testing.T) {
	ok := []ocbcast.ServeStream{{Tenant: "a", Reqs: []ocbcast.ServeRequest{{Op: workload.OpBcast, Lines: 1}}}}

	sys := ocbcast.New(ocbcast.Options{Cores: 4})
	if _, err := sys.Serve(ocbcast.ServeConfig{Lanes: 2}, ok); err == nil {
		t.Fatal("lanes beyond the chip's channels accepted")
	}
	sys = ocbcast.New(ocbcast.Options{Cores: 4})
	if _, err := sys.Serve(ocbcast.ServeConfig{Policy: "fifo"}, ok); err == nil {
		t.Fatal("unknown policy accepted")
	}
	sys = ocbcast.New(ocbcast.Options{Cores: 4})
	bad := []ocbcast.ServeStream{{Tenant: "a", Reqs: []ocbcast.ServeRequest{{Op: workload.OpBcast, Root: 4, Lines: 1}}}}
	if _, err := sys.Serve(ocbcast.ServeConfig{}, bad); err == nil {
		t.Fatal("root outside the chip accepted")
	}
	sys = ocbcast.New(ocbcast.Options{Cores: 4})
	if _, err := sys.Serve(ocbcast.ServeConfig{}, nil); err == nil {
		t.Fatal("empty mix accepted")
	}
}

// TestRunConsumersReturnErrors: Replay and Serve promise an error, so
// the misuses that would otherwise escape as panics from inside Run — an
// MPB lane layout only the one-sided family rejects, a second
// Run-consuming call on one System, a layout that reaches past private
// memory — must come back as errors.
func TestRunConsumersReturnErrors(t *testing.T) {
	threeLanes := ocbcast.Options{Cores: 4, Channels: 3} // New accepts it; occoll's flag block does not fit
	overlapped, err := ocbcast.ParseTrace([]byte("octrace v1\nallreduce 0 8 0 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := ocbcast.ParseTrace([]byte("octrace v1\nbcast 0 8 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	mix := []ocbcast.ServeStream{{Tenant: "a", Reqs: []ocbcast.ServeRequest{{Op: workload.OpBcast, Lines: 1}}}}
	replay := func(s *ocbcast.System) error { _, err := s.Replay(overlapped); return err }
	serve := func(s *ocbcast.System) error { _, err := s.Serve(ocbcast.ServeConfig{}, mix); return err }
	// A 32 MiB allgather block per core of 8, in five rotating regions,
	// is a valid record that needs 1.25 GiB of each core's private memory.
	huge, err := ocbcast.ParseTrace([]byte("octrace v1\nallgather 0 1048576 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	hugeMix := []ocbcast.ServeStream{{Tenant: "a", Reqs: []ocbcast.ServeRequest{{Op: workload.OpAllGather, Lines: 1 << 20}}}}
	replayHuge := func(s *ocbcast.System) error { _, err := s.Replay(huge); return err }
	serveHuge := func(s *ocbcast.System) error { _, err := s.Serve(ocbcast.ServeConfig{}, hugeMix); return err }

	cases := []struct {
		name  string
		opts  ocbcast.Options
		first func(*ocbcast.System) error // must succeed; nil = none
		call  func(*ocbcast.System) error
		want  string
	}{
		{"replay with a compute gap on an unfit lane layout", threeLanes, nil, replay, "one-sided collectives unavailable"},
		{"serve on an unfit lane layout", threeLanes, nil, serve, "one-sided collectives unavailable"},
		{"second replay", ocbcast.Options{Cores: 4}, replay, replay, "System already ran"},
		{"second serve", ocbcast.Options{Cores: 4}, serve, serve, "System already ran"},
		{"replay of a layout larger than private memory", ocbcast.Options{Cores: 8}, nil, replayHuge, "bytes of private memory per core"},
		{"serve of a layout larger than private memory", ocbcast.Options{Cores: 8}, nil, serveHuge, "bytes of private memory per core"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			sys := ocbcast.New(tc.opts)
			if tc.first != nil {
				if err := tc.first(sys); err != nil {
					t.Fatalf("%s: first call: %v", tc.name, err)
				}
			}
			if err := tc.call(sys); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
			}
		}()
	}

	// The unfit layout only matters to calls that use the one-sided
	// family: a gap-free trace still replays on it.
	if _, err := ocbcast.New(threeLanes).Replay(blocking); err != nil {
		t.Errorf("gap-free replay on the three-lane chip: %v", err)
	}
	// Run has no error to return; it panics with the same text.
	sys := ocbcast.New(ocbcast.Options{Cores: 4})
	sys.Run(func(*ocbcast.Core) {})
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "ocbcast: System already ran") {
			t.Errorf("second Run panicked with %q", r)
		}
	}()
	sys.Run(func(*ocbcast.Core) {})
}
