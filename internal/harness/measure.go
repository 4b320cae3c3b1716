package harness

import (
	"fmt"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Alg identifies a broadcast implementation for measurement.
type Alg struct {
	Name string // "oc", "binomial", "sag", "naive"
	K    int    // OC-Bcast fan-out (ignored by the baselines)
	// OCConfig optionally overrides the full OC-Bcast configuration
	// (ablations); when nil, K with the paper defaults is used.
	OCConfig *occore.Config
}

// Label is a human-readable algorithm name.
func (a Alg) Label() string {
	if a.Name == "oc" {
		return fmt.Sprintf("OC-Bcast k=%d", a.K)
	}
	return a.Name
}

// MeasureBcast runs `reps` broadcasts of `lines` cache lines from root 0
// on n cores and returns the per-repetition latency in microseconds —
// the paper's §6.1 methodology: repetitions are separated by barriers,
// each repetition broadcasts from a fresh (uncached) payload offset, and
// latency runs from the root's call to the last core's return.
func MeasureBcast(cfg scc.Config, alg Alg, n, lines, reps int) []float64 {
	if reps <= 0 {
		reps = 5
	}
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)

	// Pre-stage every repetition's payload at a fresh offset.
	msgBytes := lines * scc.CacheLine
	payload := make([]byte, msgBytes)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	for it := 0; it < reps; it++ {
		chip.Private(0).Write(it*msgBytes, payload)
	}

	starts := make([]sim.Time, reps)
	returns := make([][]sim.Time, reps)
	for it := range returns {
		returns[it] = make([]sim.Time, n)
	}

	// "oc" is the standalone OC-Bcast, registered as "ocbcast"; the
	// baselines ignore the one-sided configuration.
	name, occfg := alg.Name, occore.DefaultConfig()
	if name == "oc" {
		name = "ocbcast"
		if alg.OCConfig != nil {
			occfg = *alg.OCConfig
		} else {
			occfg.K = alg.K
		}
	}
	a, ok := algsel.Lookup(algsel.OpBcast, name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown algorithm %q", alg.Name))
	}
	algsel.OnChip(chip, occfg, func(e *algsel.Env) {
		c := e.Core()
		for it := 0; it < reps; it++ {
			e.Port.Barrier()
			if c.ID() == 0 {
				starts[it] = c.Now()
			}
			e.Exec(a, algsel.Choice{Alg: name}, algsel.Args{Addr: it * msgBytes, Lines: lines})
			returns[it][c.ID()] = c.Now()
		}
	})

	out := make([]float64, reps)
	for it := 0; it < reps; it++ {
		last := starts[it]
		for _, r := range returns[it] {
			if r > last {
				last = r
			}
		}
		out[it] = (last - starts[it]).Microseconds()
	}
	return out
}

// spanUs is one collective's latency across the chip: from the first
// core's call (starts, per core) to the last core's return, in µs.
func spanUs(starts, returns []sim.Time) float64 {
	first, last := starts[0], returns[0]
	for id := 1; id < len(starts); id++ {
		first, last = min(first, starts[id]), max(last, returns[id])
	}
	return (last - first).Microseconds()
}

// MeanLatency averages MeasureBcast. It is the one-cell case of
// MeanLatencyGrid, so single points and sweeps share the same runner.
func MeanLatency(cfg scc.Config, alg Alg, n, lines, reps int) float64 {
	return MeanLatencyGrid(cfg, n, []LatencyCell{{Alg: alg, Lines: lines, Reps: reps}})[0]
}

// ThroughputMBps converts a broadcast of `lines` cache lines completing
// in latencyUs microseconds to MB/s (10^6 bytes, as Table 2 uses).
func ThroughputMBps(lines int, latencyUs float64) float64 {
	return float64(lines*scc.CacheLine) / latencyUs
}
