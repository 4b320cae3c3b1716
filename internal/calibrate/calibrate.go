// Package calibrate reproduces the paper's Table 1 methodology: it runs
// put/get microbenchmarks (on the simulator, where the paper used the
// SCC) across hop distances and message sizes, then least-squares fits
// the LogP model parameters from the measured completion times. A good
// fit recovering the configured parameters validates both the model
// formulas and the simulator's cost accounting against each other.
package calibrate

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sample is one microbenchmark observation.
type Sample struct {
	Op       string // "mpbPut", "mpbGet", "memPut", "memGet"
	Lines    int
	Dist     int // remote-MPB hop distance
	DMem     int // memory-controller distance of the acting core
	Duration sim.Duration
}

// coreAtDistance finds a core whose tile is exactly d hops from core 0's
// tile on the topology (d from 1 up to its diameter + 1), preferring the
// second core of a tile so the target differs from the actor.
func coreAtDistance(topo scc.Topology, d int) int {
	for tile := 0; tile < topo.NumTiles(); tile++ {
		if scc.HopDistance(topo.TileCoord(0), topo.TileCoord(tile)) == d {
			return tile*topo.TileCores + 1
		}
	}
	panic(fmt.Sprintf("calibrate: no tile at distance %d on the %v", d, topo))
}

// Microbench runs the four put/get families on a contention-free chip
// and returns one exact observation per (op, size, distance). Sizes are
// the paper's Figure 3 set by default.
func Microbench(cfg scc.Config, sizes []int) []Sample {
	if len(sizes) == 0 {
		sizes = []int{1, 4, 8, 16}
	}
	// Calibration, like the paper's §3.2 measurements, is contention
	// free and cache cold.
	cfg.Contention.Enabled = false
	cfg.CacheEnabled = false

	var samples []Sample
	chip := rma.NewChip(cfg)
	// Seed private memory for the mem-sourced puts.
	maxLines := 0
	for _, s := range sizes {
		if s > maxLines {
			maxLines = s
		}
	}
	chip.Private(0).Write(0, make([]byte, maxLines*scc.CacheLine))

	topo := cfg.Topology()
	dmem := topo.MemDistance(0)
	chip.Run(func(c *rma.Core) {
		if c.ID() != 0 {
			return
		}
		for d := 1; d <= 9; d++ {
			target := coreAtDistance(topo, d)
			for _, n := range sizes {
				t0 := c.Now()
				c.PutMPBToMPB(target, 0, 0, n)
				samples = append(samples, Sample{"mpbPut", n, d, dmem, c.Now() - t0})

				t0 = c.Now()
				c.GetMPBToMPB(target, 0, 0, n)
				samples = append(samples, Sample{"mpbGet", n, d, dmem, c.Now() - t0})

				t0 = c.Now()
				c.PutMemToMPB(target, 0, 0, n)
				samples = append(samples, Sample{"memPut", n, d, dmem, c.Now() - t0})

				t0 = c.Now()
				c.GetMPBToMem(target, 0, 0, n)
				samples = append(samples, Sample{"memGet", n, d, dmem, c.Now() - t0})
			}
		}
	})
	return samples
}

// Fit holds the recovered Table 1 parameters and per-family fit quality.
type Fit struct {
	Params scc.Params
	R2     map[string]float64
}

// FitParams recovers the eight Table 1 parameters from microbenchmark
// samples by staged least squares:
//
//	mpbGet: C = oget + n·2·ompb + n·(2d+2)·Lhop     → Lhop, ompb, oget
//	mpbPut: C = oput + n·2·ompb + n·(2d+2)·Lhop     → oput
//	memGet: C = omemget + n·(ompb+omemw+2dmem·Lhop) + n·2d·Lhop → omemget, omemw
//	memPut: C = omemput + n·(omemr+ompb+2dmem·Lhop) + n·2d·Lhop → omemput, omemr
func FitParams(samples []Sample) (Fit, error) {
	fit := Fit{R2: make(map[string]float64)}
	by := map[string][]Sample{}
	for _, s := range samples {
		by[s.Op] = append(by[s.Op], s)
	}
	for _, op := range []string{"mpbGet", "mpbPut", "memGet", "memPut"} {
		if len(by[op]) == 0 {
			return Fit{}, fmt.Errorf("calibrate: no %q samples", op)
		}
	}

	// Regress on features [1, n, n·d]; durations in microseconds.
	regress := func(ss []Sample) (b []float64, r2 float64, err error) {
		x := make([][]float64, len(ss))
		y := make([]float64, len(ss))
		for i, s := range ss {
			x[i] = []float64{1, float64(s.Lines), float64(s.Lines * s.Dist)}
			y[i] = s.Duration.Microseconds()
		}
		return stats.OLS(x, y)
	}

	bg, r2g, err := regress(by["mpbGet"])
	if err != nil {
		return Fit{}, fmt.Errorf("calibrate: mpbGet fit: %w", err)
	}
	fit.R2["mpbGet"] = r2g
	// C = oget + n(2·ompb + 2·Lhop) + n·d·(2·Lhop)
	lhop := bg[2] / 2
	ompb := (bg[1] - 2*lhop) / 2
	fit.Params.Lhop = sim.Micros(lhop)
	fit.Params.OMpb = sim.Micros(ompb)
	fit.Params.OMpbGet = sim.Micros(bg[0])

	bp, r2p, err := regress(by["mpbPut"])
	if err != nil {
		return Fit{}, fmt.Errorf("calibrate: mpbPut fit: %w", err)
	}
	fit.R2["mpbPut"] = r2p
	fit.Params.OMpbPut = sim.Micros(bp[0])

	dmem := float64(by["memGet"][0].DMem)
	bmg, r2mg, err := regress(by["memGet"])
	if err != nil {
		return Fit{}, fmt.Errorf("calibrate: memGet fit: %w", err)
	}
	fit.R2["memGet"] = r2mg
	// C = omemget + n(ompb + omemw + 2dmem·Lhop + 2·Lhop·d)
	fit.Params.OMemGet = sim.Micros(bmg[0])
	fit.Params.OMemW = sim.Micros(bmg[1] - ompb - 2*dmem*lhop)

	bmp, r2mp, err := regress(by["memPut"])
	if err != nil {
		return Fit{}, fmt.Errorf("calibrate: memPut fit: %w", err)
	}
	fit.R2["memPut"] = r2mp
	fit.Params.OMemPut = sim.Micros(bmp[0])
	fit.Params.OMemR = sim.Micros(bmp[1] - ompb - 2*dmem*lhop)

	return fit, nil
}
