package calibrate

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Crossover calibration. The registry's tuner (internal/algsel) places
// algorithm crossovers — the smallest message size where one algorithm
// overtakes another — from the closed-form model alone. This file
// validates those thresholds the same way calibrate.go validates the
// Table 1 parameters: by measuring the same quantity on the simulator
// and comparing. PredictedCrossover uses only model arithmetic (so it
// also works with *fitted* parameters, closing the fit→predict loop);
// SimulatedCrossover measures both algorithms on a simulated chip.

// Crossover is one located threshold: the smallest message size, in
// cache lines, where algorithm B's latency is at or below algorithm A's.
// Lines is -1 when B never overtakes A within [1, MaxLines].
type Crossover struct {
	Op       algsel.Op
	A, B     string
	MaxLines int
	Lines    int
}

// String formats the threshold like "allreduce: rabenseifner overtakes
// hybrid at 9 lines".
func (c Crossover) String() string {
	if c.Lines < 0 {
		return fmt.Sprintf("%s: %s never overtakes %s up to %d lines", c.Op, c.B, c.A, c.MaxLines)
	}
	return fmt.Sprintf("%s: %s overtakes %s at %d lines", c.Op, c.B, c.A, c.Lines)
}

// latencyFn maps a message size to each algorithm's latency; crossover
// search is generic over it so the predicted (model) and simulated
// searches share one scan.
type latencyFn func(lines int) (aUs, bUs float64)

// findCrossover scans a geometric size grid for the first size where
// B ≤ A and bisects the bracketing interval down to the exact line
// count. It assumes one sign change in [1, maxLines] — true for the
// registered algorithm pairs, whose cost curves differ by slope, not
// oscillation.
func findCrossover(f latencyFn, maxLines int) int {
	check := func(lines int) bool {
		a, b := f(lines)
		return b <= a
	}
	prev := 1
	if check(1) {
		return 1
	}
	for s := 2; ; {
		if s > maxLines {
			s = maxLines
		}
		if check(s) {
			lo, hi := prev, s // lo: A wins, hi: B wins
			for lo+1 < hi {
				mid := (lo + hi) / 2
				if check(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi
		}
		if s == maxLines {
			return -1
		}
		prev = s
		s = s * 3 / 2
	}
}

// lookupPair resolves the two algorithm names of an operation.
func lookupPair(op algsel.Op, a, b string) (algA, algB *algsel.Algorithm, err error) {
	algA, okA := algsel.Lookup(op, a)
	algB, okB := algsel.Lookup(op, b)
	if !okA || !okB {
		return nil, nil, fmt.Errorf("calibrate: unknown algorithm pair %s/%s for %s", a, b, op)
	}
	if algA.Model == nil || algB.Model == nil {
		return nil, nil, fmt.Errorf("calibrate: %s/%s for %s lack latency models", a, b, op)
	}
	return algA, algB, nil
}

// PredictedCrossover locates the model's crossover threshold for two
// registered algorithms of an operation on the first p cores of a
// topology, each algorithm evaluated at its tuned (K, chunk). Because it
// is pure arithmetic over a Params value, it accepts fitted parameters
// as readily as configured ones — the round-trip the tests close.
func PredictedCrossover(params scc.Params, topo scc.Topology, p int, base core.Config,
	op algsel.Op, a, b string, maxLines int) (Crossover, error) {
	algA, algB, err := lookupPair(op, a, b)
	if err != nil {
		return Crossover{}, err
	}
	m := model.New(params)
	lat := func(alg *algsel.Algorithm, lines int) float64 {
		ch, _ := algsel.BestChoiceFor(m, topo, p, base, alg, lines)
		return alg.Model(m, topo, p, lines, ch).Microseconds()
	}
	x := findCrossover(func(lines int) (float64, float64) {
		return lat(algA, lines), lat(algB, lines)
	}, maxLines)
	return Crossover{Op: op, A: a, B: b, MaxLines: maxLines, Lines: x}, nil
}

// measureAlg runs one registered algorithm on a fresh simulated chip and
// returns its latency in microseconds (first core's call to last core's
// return). calibrate builds its own lean runner, like Microbench does,
// so the package stays free of the harness layer.
func measureAlg(cfg scc.Config, base core.Config, alg *algsel.Algorithm, ch algsel.Choice, p, lines int) float64 {
	chip := rma.NewChipN(cfg, p)
	msgBytes := lines * scc.CacheLine
	region := (p + 1) * msgBytes
	for c := 0; c < p; c++ {
		buf := make([]byte, region)
		for i := range buf {
			buf[i] = byte(i*5 + c*17 + 1)
		}
		chip.Private(c).Write(0, buf)
	}
	starts := make([]sim.Time, p)
	ends := make([]sim.Time, p)
	algsel.OnChip(chip, base, func(e *algsel.Env) {
		c := e.Core()
		e.Port.Barrier()
		starts[c.ID()] = c.Now()
		e.Exec(alg, ch, algsel.Args{Root: 0, Addr: 0, Scratch: region, Lines: lines, Reduce: collective.SumInt64})
		ends[c.ID()] = c.Now()
	})
	first, last := starts[0], ends[0]
	for i := 1; i < p; i++ {
		if starts[i] < first {
			first = starts[i]
		}
		if ends[i] > last {
			last = ends[i]
		}
	}
	return (last - first).Microseconds()
}

// SimulatedCrossover locates the same threshold by measurement: both
// algorithms simulated (at their tuned parameters) per probed size. The
// simulator configuration supplies the topology; p of 0 means all cores.
func SimulatedCrossover(cfg scc.Config, base core.Config, op algsel.Op, a, b string, maxLines int) (Crossover, error) {
	algA, algB, err := lookupPair(op, a, b)
	if err != nil {
		return Crossover{}, err
	}
	topo := cfg.Topology()
	p := topo.NumCores()
	m := model.New(cfg.Params)
	lat := func(alg *algsel.Algorithm, lines int) float64 {
		ch, _ := algsel.BestChoiceFor(m, topo, p, base, alg, lines)
		return measureAlg(cfg, base, alg, ch, p, lines)
	}
	x := findCrossover(func(lines int) (float64, float64) {
		return lat(algA, lines), lat(algB, lines)
	}, maxLines)
	return Crossover{Op: op, A: a, B: b, MaxLines: maxLines, Lines: x}, nil
}

// ValidateCrossover locates a threshold both ways and reports whether
// the prediction lands within a factor of the measurement (both -1
// also agrees). Factor 2 is the default acceptance: a crossover is a
// zero of the *difference* of two noisy curves, so its position is far
// more sensitive than the curves themselves; what matters downstream is
// that the regret near the threshold stays small, which fig-crossover
// checks directly.
func ValidateCrossover(cfg scc.Config, base core.Config, op algsel.Op, a, b string, maxLines int, factor float64) (pred, meas Crossover, err error) {
	if factor < 1 {
		return Crossover{}, Crossover{}, fmt.Errorf("calibrate: factor %v must be >= 1", factor)
	}
	pred, err = PredictedCrossover(cfg.Params, cfg.Topology(), cfg.Topology().NumCores(), base, op, a, b, maxLines)
	if err != nil {
		return Crossover{}, Crossover{}, err
	}
	meas, err = SimulatedCrossover(cfg, base, op, a, b, maxLines)
	if err != nil {
		return Crossover{}, Crossover{}, err
	}
	switch {
	case pred.Lines < 0 && meas.Lines < 0:
		return pred, meas, nil
	case pred.Lines < 0 || meas.Lines < 0:
		return pred, meas, fmt.Errorf("calibrate: %v but measurement says %v", pred, meas)
	}
	lo := float64(meas.Lines) / factor
	hi := float64(meas.Lines) * factor
	if f := float64(pred.Lines); f < lo || f > hi {
		return pred, meas, fmt.Errorf("calibrate: predicted %v outside %gx of measured %v", pred, factor, meas)
	}
	return pred, meas, nil
}
