package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// The real protocol stack — frames for rcce and OC-Bcast, blocking
// bodies for occoll and the collectives above them — is pinned to
// committed digests, not just the synthetic sim-level stress
// (internal/sim has that). This suite runs the six collective pairs the
// repo measures — three broadcasts and three allreduce variants —
// across the four scaling topologies with randomized message sizes and
// requires the per-repetition latencies and the engine's slow-path
// switch counts to equal testdata/mode_digests.json exactly. The rows
// were recorded when every protocol still existed as a blocking body
// and as a frame and the engine had a classic two-hop scheduler, with
// all four {inline, goroutine} × {handoff, classic} combinations
// agreeing on every cell.

// conformanceCell runs one collective workload on a pooled chip and
// returns every repetition's latency plus the run's slow-path switch
// count (diffed around the run: pooled engines accumulate forever).
func conformanceCell(cfg scc.Config, n int, kind string, k, lines, reps int) ([]sim.Duration, int64) {
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)

	msgBytes := lines * scc.CacheLine
	for c := 0; c < n; c++ {
		if c > 0 && (kind == "bcast/oc" || kind == "bcast/binomial" || kind == "bcast/sag") {
			break // broadcasts stage the root's payload only
		}
		payload := make([]byte, msgBytes)
		for i := range payload {
			payload[i] = byte(i*7 + c*13 + 5)
		}
		for it := 0; it < reps; it++ {
			chip.Private(c).Write(it*msgBytes, payload)
		}
	}
	scratchBase := (reps + 1) * msgBytes

	starts := make([][]sim.Time, reps)
	returns := make([][]sim.Time, reps)
	for it := range returns {
		starts[it] = make([]sim.Time, n)
		returns[it] = make([]sim.Time, n)
	}

	sw0 := chip.Engine.Switches()
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		comm := collective.NewComm(port)
		occfg := occore.DefaultConfig()
		occfg.K = k
		var op func(addr int)
		switch kind {
		case "bcast/oc":
			b := occore.NewBroadcaster(c, occfg)
			op = func(addr int) { b.Bcast(0, addr, lines) }
		case "bcast/binomial":
			op = func(addr int) { comm.BcastBinomial(0, addr, lines) }
		case "bcast/sag":
			op = func(addr int) { comm.BcastScatterAllgather(0, addr, lines) }
		case "allreduce/oc":
			x := occoll.New(c, port, occfg)
			op = func(addr int) { x.AllReduce(addr, lines, collective.SumInt64) }
		case "allreduce/twosided":
			op = func(addr int) {
				comm.Reduce(0, addr, scratchBase, lines, collective.SumInt64)
				comm.BcastBinomial(0, addr, lines)
			}
		case "allreduce/hybrid":
			b := occore.NewBroadcaster(c, occfg)
			op = func(addr int) {
				comm.Reduce(0, addr, scratchBase, lines, collective.SumInt64)
				b.Bcast(0, addr, lines)
			}
		default:
			panic(fmt.Sprintf("unknown conformance kind %q", kind))
		}
		for it := 0; it < reps; it++ {
			port.Barrier()
			starts[it][c.ID()] = c.Now()
			op(it * msgBytes)
			returns[it][c.ID()] = c.Now()
		}
	})
	switches := chip.Engine.Switches() - sw0

	out := make([]sim.Duration, reps)
	for it := 0; it < reps; it++ {
		first, last := starts[it][0], returns[it][0]
		for id := 1; id < n; id++ {
			if starts[it][id] < first {
				first = starts[it][id]
			}
			if returns[it][id] > last {
				last = returns[it][id]
			}
		}
		out[it] = last - first
	}
	return out, switches
}

// modeDigest is one row of testdata/mode_digests.json: a conformance
// cell ("kind/WxH/linesCL"), its per-repetition latencies in
// picoseconds and the run's slow-path switch count.
type modeDigest struct {
	Cell      string  `json:"cell"`
	LatencyPs []int64 `json:"latency_ps"`
	Switches  int64   `json:"switches"`
}

// conformanceKinds and conformanceReps span the grid with ScaleMeshes.
var conformanceKinds = []string{
	"bcast/oc", "bcast/binomial", "bcast/sag",
	"allreduce/oc", "allreduce/twosided", "allreduce/hybrid",
}

const conformanceReps = 2

// loadModeDigests decodes the committed digest file, refusing unknown
// fields.
func loadModeDigests(t *testing.T) []modeDigest {
	t.Helper()
	f, err := os.Open("testdata/mode_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []modeDigest
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestModeDigestSchema pins the committed file's shape — one row per
// cell of the full grid, unique cell names, every field filled — so a
// truncated or -short-tier file cannot make the conformance test
// vacuous.
func TestModeDigestSchema(t *testing.T) {
	rows := loadModeDigests(t)
	if want := len(conformanceKinds) * len(ScaleMeshes()); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := map[string]bool{}
	for i, r := range rows {
		if r.Cell == "" || seen[r.Cell] {
			t.Errorf("row %d: cell %q empty or repeated", i, r.Cell)
		}
		seen[r.Cell] = true
		if len(r.LatencyPs) != conformanceReps || r.Switches <= 0 {
			t.Errorf("row %d (%s): %+v, want %d latencies and a switch count", i, r.Cell, r, conformanceReps)
		}
		for _, l := range r.LatencyPs {
			if l <= 0 {
				t.Errorf("row %d (%s): non-positive latency %d", i, r.Cell, l)
			}
		}
	}
}

// TestInlineGoroutineConformance drives the randomized conformance grid
// and compares latencies and switch counts against the committed
// digests exactly (the name records what the digests were recorded
// from: the inline/goroutine mode grid of the parent design). On a
// mismatch it logs the table this build produces, as JSON, for
// inspection — a differing row means simulated timing or the schedule
// changed, which is a bug unless proven otherwise.
func TestInlineGoroutineConformance(t *testing.T) {
	want := map[string]modeDigest{}
	for _, r := range loadModeDigests(t) {
		want[r.Cell] = r
	}
	rng := rand.New(rand.NewSource(29))
	var got []modeDigest
	for _, topo := range ScaleMeshes() {
		cfg := scc.DefaultConfig()
		cfg.Topo = topo
		n := topo.NumCores()
		if testing.Short() && n > 96 {
			continue
		}
		for _, kind := range conformanceKinds {
			lines := 4 + rng.Intn(60)
			lat, sw := conformanceCell(cfg, n, kind, 7, lines, conformanceReps)
			row := modeDigest{Cell: fmt.Sprintf("%s/%dx%d/%dCL", kind, topo.W, topo.H, lines), Switches: sw}
			for _, d := range lat {
				row.LatencyPs = append(row.LatencyPs, int64(d))
			}
			got = append(got, row)
			if w, ok := want[row.Cell]; !ok || !reflect.DeepEqual(row, w) {
				t.Errorf("%s: got %+v, committed %+v", row.Cell, row, w)
			}
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests this build produces:\n%s", out)
	}
}
