// Package algsel is the collective-algorithm registry and its
// model-driven tuner: the one selection layer that makes the repo's two
// collective stacks — the two-sided RCCE baselines (internal/collective)
// and the one-sided OC family (internal/occoll) — interchangeable
// implementations of six operations (broadcast, reduce, allreduce,
// scatter, gather, allgather) behind one interface.
//
// Every implementation registers an Algorithm: a Run function over a
// per-core Env, an optional non-blocking Issue twin, the tunable
// parameter candidates (fan-out K, pipeline chunk), and an optional
// closed-form latency Model (internal/model). The tuner (tuner.go)
// evaluates the models per topology across message sizes and
// materializes a Plan — a decision table mapping each operation and size
// band to the predicted-fastest algorithm, fan-out and chunk. The public
// API consults the plan when Options.Algorithm is "auto"; named overrides
// and the paper-faithful defaults resolve through the same registry, so
// every future algorithm plugs in by registering itself here.
//
// The paper's crossover result is the motivation: one-sided MPB
// collectives beat two-sided ones only in certain (message size, core
// count) regimes, so a runtime that wants to be fast everywhere must
// pick per call. The fig-crossover harness experiment measures how well
// the plan's picks track the simulated best (the auto-vs-best regret).
package algsel

import (
	"fmt"
	"sort"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/occoll"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Args are one collective call's arguments, the union across operations:
// ops without a root (allreduce, allgather) ignore Root, one-sided
// algorithms ignore Scratch, and only the reductions use Reduce.
type Args struct {
	Root    int
	Addr    int
	Scratch int
	Lines   int
	Reduce  collective.ReduceOp
}

// Choice is one tunable configuration of an algorithm: the registered
// name plus the fan-out and pipeline chunk the tuner (or a caller)
// selected. Zero K or ChunkLines means "the configured default" — the
// algorithm's substrate keeps its base parameters.
type Choice struct {
	Alg        string
	K          int
	ChunkLines int
}

// String formats a choice like "oc(k=7,chunk=96)".
func (c Choice) String() string {
	s := c.Alg
	switch {
	case c.K > 0 && c.ChunkLines > 0:
		s += fmt.Sprintf("(k=%d,chunk=%d)", c.K, c.ChunkLines)
	case c.K > 0:
		s += fmt.Sprintf("(k=%d)", c.K)
	case c.ChunkLines > 0:
		s += fmt.Sprintf("(chunk=%d)", c.ChunkLines)
	}
	return s
}

// Algorithm is one named implementation of a collective operation.
type Algorithm struct {
	// Op and Name identify the entry; (Op, Name) is unique.
	Op   string
	Name string
	// OneSided marks implementations built on MPB RMA only (the OC
	// family); false means the two-sided RCCE substrate.
	OneSided bool
	// Run executes the collective on the calling core. Every core of the
	// chip must call it with matching arguments and the same Choice.
	Run func(e *Env, ch Choice, a Args)
	// Issue starts the non-blocking form and returns its request, or is
	// nil when the algorithm has no non-blocking twin (the two-sided
	// substrate blocks by construction).
	Issue func(e *Env, ch Choice, a Args) *occoll.Request
	// MPB names the protocols whose MPB regions a blocking run uses
	// besides the one-sided lanes (scc's layout table); an algorithm
	// with no Issue twin must name at least one.
	MPB []scc.Owner
	// Model predicts the latency of the algorithm for `lines` cache
	// lines on the first p cores of topology t, or is nil when the
	// algorithm has no closed form (it is then never auto-selected,
	// only available as a named override).
	Model func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration
	// Ks and Chunks list the candidate fan-outs and pipeline chunk sizes
	// the tuner may pick for this algorithm; empty means the parameter
	// does not apply (Choice keeps it 0).
	Ks     []int
	Chunks []int
}

// registry maps each op to its registered algorithms, kept sorted by
// name so iteration order (and therefore tuner tie-breaking) is
// deterministic.
var registry = map[string][]*Algorithm{}

// Register adds an algorithm to the registry. It panics on a duplicate
// (Op, Name) or a missing Run — registration is init-time wiring, so
// failing fast is the right behavior.
func Register(a Algorithm) {
	if a.Run == nil {
		panic(fmt.Sprintf("algsel: algorithm %s/%s has no Run", a.Op, a.Name))
	}
	if a.Name == "" {
		panic(fmt.Sprintf("algsel: algorithm for %s has no name", a.Op))
	}
	if a.Issue == nil && len(a.MPB) == 0 {
		panic(fmt.Sprintf("algsel: algorithm %s/%s names no MPB owner", a.Op, a.Name))
	}
	for _, have := range registry[a.Op] {
		if have.Name == a.Name {
			panic(fmt.Sprintf("algsel: duplicate algorithm %s/%s", a.Op, a.Name))
		}
	}
	alg := a
	registry[a.Op] = append(registry[a.Op], &alg)
	sort.Slice(registry[a.Op], func(i, j int) bool {
		return registry[a.Op][i].Name < registry[a.Op][j].Name
	})
}

// For returns the algorithms registered for an operation, sorted by name.
func For(op string) []*Algorithm {
	return registry[op]
}

// Lookup finds an algorithm by operation and name.
func Lookup(op string, name string) (*Algorithm, bool) {
	for _, a := range registry[op] {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Known reports whether any operation registers the given algorithm
// name — what the public API uses to validate Options.Algorithm.
func Known(name string) bool {
	for _, algs := range registry {
		for _, a := range algs {
			if a.Name == name {
				return true
			}
		}
	}
	return false
}

// Ops lists the operations with at least one registered algorithm,
// sorted.
func Ops() []string {
	out := make([]string, 0, len(registry))
	for op := range registry {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cfgFor resolves a choice against a base one-sided configuration: K and
// ChunkLines override when set, everything else (double buffering,
// channels) is inherited.
func cfgFor(base core.Config, ch Choice) core.Config {
	cfg := base
	if ch.K > 0 {
		cfg.K = ch.K
	}
	if ch.ChunkLines > 0 {
		cfg.BufLines = ch.ChunkLines
	}
	return cfg
}

// ValidChoice reports whether the choice's one-sided MPB layout fits
// under the base configuration (always true for two-sided algorithms,
// which have no MPB layout of their own).
func ValidChoice(base core.Config, a *Algorithm, ch Choice) bool {
	if !a.OneSided {
		return true
	}
	return occoll.Validate(cfgFor(base, ch)) == nil
}
