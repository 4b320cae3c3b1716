package algsel

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/sim"
)

// The tuner: pure closed-form arithmetic (no simulation) that turns the
// registered algorithms' latency models into a per-topology decision
// table. Tune evaluates every modeled algorithm at every candidate
// (fan-out, chunk) over a geometric grid of message sizes, refines each
// winner change to an exact crossover size by bisection, and returns the
// resulting size bands. The table is deterministic — ties break by
// (name, K, chunk) — so every core of a chip derives the same plan.

// MaxTuneLines is the largest message size (cache lines) the decision
// table resolves; larger calls use the last band, whose winner is the
// bandwidth-optimal regime's.
const MaxTuneLines = 8192

// Band is one row of an operation's decision table: Choice wins from the
// previous band's MaxLines+1 up to MaxLines inclusive.
type Band struct {
	MaxLines    int
	Choice      Choice
	PredictedUs float64 // predicted latency at MaxLines
}

// Plan is the materialized decision table for one (topology, core count,
// parameter set): the registry's auto-selection state. Bands ranks every
// modeled algorithm; OneSidedBands ranks only the one-sided (OC) family
// — what the explicitly one-sided public methods (AllReduceOC, IBcastOC,
// ...) consult under "auto", since they promise MPB-RMA-only semantics.
type Plan struct {
	Topo          scc.Topology
	P             int
	Params        scc.Params
	Base          core.Config
	Bands         map[string][]Band
	OneSidedBands map[string][]Band
}

// candidate is one (algorithm, choice) pair the tuner scores.
type candidate struct {
	alg *Algorithm
	ch  Choice
}

// candidatesFor enumerates the valid tunable choices of every modeled
// algorithm of an operation under the base configuration.
func candidatesFor(op string, base core.Config) []candidate {
	var out []candidate
	for _, a := range For(op) {
		if a.Model == nil {
			continue
		}
		ks := a.Ks
		if len(ks) == 0 {
			ks = []int{0}
		}
		chunks := a.Chunks
		if len(chunks) == 0 {
			chunks = []int{0}
		}
		for _, k := range ks {
			for _, chunk := range chunks {
				ch := Choice{Alg: a.Name, K: k, ChunkLines: chunk}
				if ValidChoice(base, a, ch) {
					out = append(out, candidate{alg: a, ch: ch})
				}
			}
		}
	}
	return out
}

// best scores every candidate at one message size and returns the
// winner. Ties break by (name, K, chunk) so the result is deterministic.
func best(m model.Model, topo scc.Topology, p int, cands []candidate, lines int) (Choice, sim.Duration) {
	var win Choice
	var winLat sim.Duration = -1
	for _, c := range cands {
		lat := c.alg.Model(m, topo, p, lines, c.ch)
		switch {
		case winLat < 0 || lat < winLat:
			win, winLat = c.ch, lat
		case lat == winLat:
			if c.ch.Alg < win.Alg ||
				(c.ch.Alg == win.Alg && (c.ch.K < win.K ||
					(c.ch.K == win.K && c.ch.ChunkLines < win.ChunkLines))) {
				win = c.ch
			}
		}
	}
	return win, winLat
}

// BestChoiceFor returns the tunable choice the model prefers for ONE
// algorithm at the given size — what fig-crossover simulates per
// algorithm — and false when the algorithm has no model or no valid
// choice.
func BestChoiceFor(m model.Model, topo scc.Topology, p int, base core.Config, a *Algorithm, lines int) (Choice, bool) {
	if a.Model == nil {
		return Choice{}, false
	}
	var cands []candidate
	for _, c := range candidatesFor(a.Op, base) {
		if c.alg == a {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return Choice{}, false
	}
	ch, _ := best(m, topo, p, cands, lines)
	return ch, true
}

// tuneGrid is the geometric message-size grid the tuner samples:
// quarter-octave steps from 1 to MaxTuneLines.
func tuneGrid() []int {
	var g []int
	for s := 1; s <= MaxTuneLines; {
		g = append(g, s)
		next := s * 5 / 4
		if next <= s {
			next = s + 1
		}
		s = next
	}
	if g[len(g)-1] != MaxTuneLines {
		g = append(g, MaxTuneLines)
	}
	return g
}

// Tune materializes the decision table for the first p cores of a
// topology under the given timing parameters and base one-sided
// configuration. Operations without at least one modeled algorithm get
// no bands (auto-selection falls back to the compat default for them).
func Tune(params scc.Params, topo scc.Topology, p int, base core.Config) *Plan {
	plan := &Plan{
		Topo: topo, P: p, Params: params, Base: base,
		Bands: map[string][]Band{}, OneSidedBands: map[string][]Band{},
	}
	m := model.New(params)
	for _, op := range Ops() {
		all := candidatesFor(op, base)
		if bands := tuneBands(m, topo, p, all); bands != nil {
			plan.Bands[op] = bands
		}
		var os []candidate
		for _, c := range all {
			if c.alg.OneSided {
				os = append(os, c)
			}
		}
		if bands := tuneBands(m, topo, p, os); bands != nil {
			plan.OneSidedBands[op] = bands
		}
	}
	return plan
}

// tuneBands builds one decision table over the size grid for a candidate
// set, refining each winner change to an exact crossover by bisection.
func tuneBands(m model.Model, topo scc.Topology, p int, cands []candidate) []Band {
	if len(cands) == 0 {
		return nil
	}
	grid := tuneGrid()
	var bands []Band
	prevWin, _ := best(m, topo, p, cands, grid[0])
	prevSize := grid[0]
	for _, size := range grid[1:] {
		win, _ := best(m, topo, p, cands, size)
		if win != prevWin {
			// Bisect (prevSize, size] for the first size the new winner
			// takes over; the band boundary is just below it.
			lo, hi := prevSize, size
			for lo+1 < hi {
				mid := (lo + hi) / 2
				w, _ := best(m, topo, p, cands, mid)
				if w == prevWin {
					lo = mid
				} else {
					hi = mid
				}
			}
			_, atLat := best(m, topo, p, cands, lo)
			bands = append(bands, Band{MaxLines: lo, Choice: prevWin, PredictedUs: atLat.Microseconds()})
			prevWin = win
		}
		prevSize = size
	}
	_, lastLat := best(m, topo, p, cands, MaxTuneLines)
	return append(bands, Band{MaxLines: MaxTuneLines, Choice: prevWin, PredictedUs: lastLat.Microseconds()})
}

// planKey identifies one Tune invocation exactly: every input that can
// change the decision table. Topology is reduced to its fingerprint
// string because it is not comparable; Params and core.Config are value
// types.
type planKey struct {
	params scc.Params
	topo   string
	p      int
	base   core.Config
}

var planCache = struct {
	mu sync.Mutex
	m  map[planKey]*Plan
}{m: make(map[planKey]*Plan)}

// TuneCached is Tune behind a process-wide memo: repeated calls with
// the same (params, topology, core count, base config) return one
// shared *Plan instead of re-running the full grid-and-bisection sweep
// (~tens of milliseconds per call). Tune is deterministic, so the
// cached plan is byte-identical to a fresh one; callers must treat the
// returned plan as read-only, since concurrent harness shards share it.
// Tuning runs outside the cache lock, so two shards racing on a cold
// key duplicate the work once and agree on the result.
func TuneCached(params scc.Params, topo scc.Topology, p int, base core.Config) *Plan {
	key := planKey{params: params, topo: topo.Fingerprint(), p: p, base: base}
	planCache.mu.Lock()
	pl, ok := planCache.m[key]
	planCache.mu.Unlock()
	if ok {
		return pl
	}
	pl = Tune(params, topo, p, base)
	planCache.mu.Lock()
	if prior, ok := planCache.m[key]; ok {
		pl = prior // keep the first-published plan so all callers alias one
	} else {
		planCache.m[key] = pl
	}
	planCache.mu.Unlock()
	return pl
}

// Choose looks up the planned choice for an operation at a message size.
// ok is false when the operation has no decision table (no modeled
// algorithms); sizes beyond MaxTuneLines use the last band.
func (p *Plan) Choose(op string, lines int) (Choice, bool) {
	return chooseBand(p.Bands[op], lines)
}

func chooseBand(bands []Band, lines int) (Choice, bool) {
	if len(bands) == 0 {
		return Choice{}, false
	}
	for _, b := range bands {
		if lines <= b.MaxLines {
			return b.Choice, true
		}
	}
	return bands[len(bands)-1].Choice, true
}

// String renders the plan as a compact human-readable table, one line
// per band.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %v, %d cores:\n", p.Topo, p.P)
	for _, op := range Ops() {
		bands := p.Bands[op]
		if len(bands) == 0 {
			continue
		}
		lo := 1
		for _, band := range bands {
			fmt.Fprintf(&b, "  %-10s %6d..%-6d -> %s\n", op, lo, band.MaxLines, band.Choice)
			lo = band.MaxLines + 1
		}
	}
	return b.String()
}
