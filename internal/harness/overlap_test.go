package harness

import (
	"testing"

	occore "repro/internal/core"
	"repro/internal/model"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// TestOverlapSpeedupHeadline pins the fig-overlap acceptance point: at
// some (compute, size) cell the non-blocking AllReduce must buy at least
// 1.3x over the blocking collective + compute serialization.
func TestOverlapSpeedupHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("overlap headline skipped with -short")
	}
	cfg := scc.DefaultConfig()
	points := OverlapSweep(cfg, scc.NumCores, 7, []int{96}, []float64{0.5}, []float64{1.0 / 64})
	if len(points) != 1 {
		t.Fatalf("expected 1 point, got %d", len(points))
	}
	p := points[0]
	if p.Speedup < 1.3 {
		t.Fatalf("overlap speedup %.3fx at 96 CL, W=T/2, g=W/64 — want >= 1.3x (blocking %.1f µs, overlapped %.1f µs)",
			p.Speedup, p.BlockingUs, p.OverlapUs)
	}
	t.Logf("overlap speedup %.2fx (blocking %.1f µs -> overlapped %.1f µs)",
		p.Speedup, p.BlockingUs, p.OverlapUs)
}

// TestInterleavedBcastCompletionOrder issues three overlapping IBcasts
// from distinct roots (largest first) on three MPB lanes and asserts
// every core observes them complete in the order the closed-form model
// ranks their latencies — i.e. the requests genuinely progress
// concurrently instead of serializing in issue order.
func TestInterleavedBcastCompletionOrder(t *testing.T) {
	cfg := scc.DefaultConfig()
	const n = 12
	occfg := occore.Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: 3}
	if err := occoll.Validate(occfg); err != nil {
		t.Fatal(err)
	}
	// Issued largest-first so completion order (smallest-first) is the
	// reverse of issue order — serialized lanes would fail this test.
	sizes := []int{36, 12, 4}
	roots := []int{0, 5, 11}

	// The model must rank the latencies ascending with size.
	mm := model.New(cfg.Params)
	bp := model.BcastParamsFor(cfg.Topo, n, occfg.K)
	bp.Moc = occfg.BufLines
	lat := make([]sim.Duration, len(sizes))
	for i, lines := range sizes {
		lat[i] = mm.OCBcastLatency(bp, lines, occfg.K)
	}
	if !(lat[2] < lat[1] && lat[1] < lat[0]) {
		t.Fatalf("model latency ordering unexpected: %v", lat)
	}

	chip := rma.NewChipN(cfg, n)
	addrs := make([]int, len(sizes))
	base := 0
	for i, lines := range sizes {
		addrs[i] = base
		base += lines * scc.CacheLine
		pay := make([]byte, lines*scc.CacheLine)
		for j := range pay {
			pay[j] = byte(i*37 + j*5)
		}
		chip.Private(roots[i]).Write(addrs[i], pay)
	}

	completion := make([][]sim.Time, len(sizes))
	for i := range completion {
		completion[i] = make([]sim.Time, n)
	}
	chip.Run(func(c *rma.Core) {
		x := occoll.New(c, rcce.NewPort(c), occfg)
		reqs := make([]*occoll.Request, len(sizes))
		for i := range sizes {
			reqs[i] = x.IBcast(roots[i], addrs[i], sizes[i])
		}
		pending := len(sizes)
		for pending > 0 {
			c.Compute(sim.Micros(0.2))
			for i, r := range reqs {
				if r != nil && r.Test() {
					completion[i][c.ID()] = c.Now()
					reqs[i] = nil
					pending--
				}
			}
		}
		x.Finish()
	})

	// Every core must observe the model's ordering: the small broadcast
	// first, the large one last.
	for core := 0; core < n; core++ {
		if !(completion[2][core] < completion[1][core] && completion[1][core] < completion[0][core]) {
			t.Errorf("core %d: completion times %v, %v, %v do not follow model ordering (sizes %v)",
				core, completion[0][core], completion[1][core], completion[2][core], sizes)
		}
	}
}
