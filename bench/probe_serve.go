package main

import (
	"fmt"

	ocbcast "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving chip of the fig-serving experiment: four MPB lanes need a
// smaller chunk than the paper's 96 lines.
const (
	serveLanes      = 4
	serveChunkLines = 16
	serveGapScale   = 0.2
)

var serveConfig = serve.Config{
	Policy: serve.PolicyWeighted, QueueBound: 32, MaxBatch: 8, MaxBatchLines: 128, Lanes: serveLanes,
}

// serveMix is an SGD training tenant plus a seeded Poisson telemetry
// tenant of small rooted collectives, arriving at a fifth of their
// recorded gaps.
func serveMix(n int) []serve.Stream {
	streams := []serve.Stream{
		serve.FromTrace("sgd", 3, workload.SGDTrace(workload.DefaultSGD(n))),
		serve.Synthetic(serve.SyntheticParams{
			Tenant: "telemetry", Weight: 1, Seed: 20260808, Count: 24, N: n,
			Ops:   []string{workload.OpBcast, workload.OpGather},
			Lines: []int{1, 2, 4, 8}, MeanGapUs: 120,
		}),
	}
	for i := range streams {
		streams[i] = serve.ScaleGaps(streams[i], serveGapScale)
	}
	return streams
}

// stubServeCore is a serve.Runner with no chip underneath: every
// collective takes a fixed 10 virtual µs.
type stubServeCore struct{ nowUs float64 }

func (s *stubServeCore) ID() int                        { return 0 }
func (s *stubServeCore) NowUs() float64                 { return s.nowUs }
func (s *stubServeCore) Compute(us float64)             { s.nowUs += us }
func (s *stubServeCore) SyncMaxUs() float64             { return s.nowUs }
func (s *stubServeCore) Run(string, int, int, int, int) { s.nowUs += 10 }
func (s *stubServeCore) Issue(string, int, int, int) serve.Pending {
	s.nowUs += 10
	return &stubPending{polls: 1}
}

// probeServe times the serving scheduler alone (admission, fairness,
// batching against a stub core), then one System.Serve of the mix. No
// end-to-end workload serves yet; the numbers are a baseline for one.
func probeServe(p *probeCtx) {
	streams := serveMix(p.n)
	layout := serve.LayoutFor(serveConfig, streams, p.n)
	p.v["serve.ns_per_request_sched"] = p.batches("probe.serve.sched", func(int) int64 {
		board := serve.NewBoard(streams)
		res := serve.Collect(serve.Run(&stubServeCore{}, serveConfig, streams, layout, board, nil), board)
		if res.Completed+res.Rejected != res.Offered {
			p.fail(fmt.Errorf("serve: %d completed + %d rejected of %d offered", res.Completed, res.Rejected, res.Offered))
		}
		return int64(res.Offered)
	})

	opts := ocbcast.Options{Channels: serveLanes, ChunkLines: serveChunkLines}
	if p.topo.NumCores() != ocbcast.MaxCores {
		opts.MeshWidth, opts.MeshHeight = p.topo.W, p.topo.H
	}
	opts.Cores = p.n
	p.v["serve.host_ms"] = p.batches("probe.serve.system", func(int) int64 {
		res, err := ocbcast.New(opts).Serve(serveConfig, streams)
		if err != nil {
			panic(err)
		}
		if res.Completed+res.Rejected != res.Offered || res.Completed == 0 {
			p.fail(fmt.Errorf("serve: %d completed + %d rejected of %d offered", res.Completed, res.Rejected, res.Offered))
		}
		p.exact("serve.throughput_rps", res.ThroughputRps)
		p.exact("serve.p99_us", res.P99Us)
		p.exact("serve.rejected_frac", float64(res.Rejected)/float64(res.Offered))
		p.exact("serve.batch_occupancy", res.BatchOccupancy)
		return 1
	}) / 1e6
}
