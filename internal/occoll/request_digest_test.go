package occoll_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The non-blocking side of the progress engine is pinned to committed
// digests: every collective × every way of completing a request × the
// four scaling topologies must reproduce testdata/request_digests.json
// exactly — per-core finish clocks, delivered bytes, the engine's
// slow-path switch count and the summed data-movement counters
// (FlagPolls/FlagWaits included, so the number of failed and successful
// probes is part of the contract). The rows were recorded at the last
// commit that ran each request's protocol on a goroutine coroutine;
// harness/testdata/mode_digests.json covers only blocking allreduce/oc.

// requestDigest is one row of testdata/request_digests.json.
type requestDigest struct {
	Cell     string             `json:"cell"` // "collective/style/WxH"
	Clocks   string             `json:"clocks_fnv64"`
	Data     string             `json:"data_fnv64"`
	Switches int64              `json:"switches"`
	Counters trace.CoreCounters `json:"counters"`
	// Events hashes the obs event stream; only the traced cell has it.
	Events string `json:"events_fnv64,omitempty"`
}

// digestCfg leaves room for two lanes below the RCCE lines; digestLines
// is three chunks (slot reuse on both buffers); digestBlock is two
// chunks per scatter/gather block on the paper's chip and one line on
// the larger meshes, where P blocks per core already make these the
// slowest cells.
var digestCfg = occoll.Config{K: 7, BufLines: 24, DoubleBuffer: true, Channels: 2}

const (
	digestLines  = 56
	digestRoot   = 5
	digestSlice  = 2 * sim.Microsecond
	digestTraced = "IAllReduce/progress/6x4"
)

func digestBlock(n int) int {
	if n > 48 {
		return 1
	}
	return 26
}

// digestCollectives issue one request each at addr on an n-core chip;
// span is the private region, in lines, the collective reads or writes.
var digestCollectives = []struct {
	name  string
	span  func(n int) int
	issue func(x *occoll.Collectives, n, addr int) *occoll.Request
}{
	{"IBcast", func(int) int { return digestLines },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IBcast(digestRoot, addr, digestLines)
		}},
	{"IReduce", func(int) int { return digestLines },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IReduce(digestRoot, addr, digestLines, collective.SumInt64)
		}},
	{"IAllReduce", func(int) int { return digestLines },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IAllReduce(addr, digestLines, collective.SumInt64)
		}},
	{"IScatter", func(n int) int { return n * digestBlock(n) },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IScatter(digestRoot, addr, digestBlock(n))
		}},
	{"IGather", func(n int) int { return n * digestBlock(n) },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IGather(digestRoot, addr, digestBlock(n))
		}},
	{"IAllGather", func(n int) int { return n * digestBlock(n) },
		func(x *occoll.Collectives, n, addr int) *occoll.Request { return x.IAllGather(addr, digestBlock(n)) }},
	{"IAllGatherRing", func(n int) int { return n * digestBlock(n) },
		func(x *occoll.Collectives, n, addr int) *occoll.Request {
			return x.IAllGatherRing(addr, digestBlock(n))
		}},
}

// digestStyles are the three ways a core can complete requests; each
// issues through issue(addr) and returns with every handle consumed.
var digestStyles = []struct {
	name string
	reqs int
	body func(c *rma.Core, x *occoll.Collectives, issue func(addr int) *occoll.Request, stride int)
}{
	{"wait", 1, func(_ *rma.Core, _ *occoll.Collectives, issue func(int) *occoll.Request, _ int) {
		issue(0).Wait()
	}},
	{"test", 1, func(c *rma.Core, _ *occoll.Collectives, issue func(int) *occoll.Request, _ int) {
		for r := issue(0); !r.Test(); {
			c.Compute(digestSlice)
		}
	}},
	{"progress", 2, func(c *rma.Core, x *occoll.Collectives, issue func(int) *occoll.Request, stride int) {
		r1, r2 := issue(0), issue(stride)
		for x.Outstanding() > 0 {
			c.Compute(digestSlice)
			x.Progress()
		}
		r1.Wait()
		r2.Wait()
	}},
}

// requestCell runs one cell on a fresh chip and digests it.
func requestCell(topo scc.Topology, coll, style int, traced bool) requestDigest {
	cfg := scc.DefaultConfig()
	cfg.Topo = topo
	n := topo.NumCores()
	chip := rma.NewChipN(cfg, n)
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder()
		chip.SetObserver(rec)
	}
	cl, st := digestCollectives[coll], digestStyles[style]
	stride := cl.span(n) * scc.CacheLine
	for c := 0; c < n; c++ {
		b := make([]byte, st.reqs*stride)
		for i := range b {
			b[i] = byte(i*11 + c*29 + coll + 3)
		}
		chip.Private(c).Write(0, b)
	}
	finish := make([]sim.Time, n)
	sw0 := chip.Engine.Switches()
	chip.Run(func(c *rma.Core) {
		x := occoll.New(c, rcce.NewPort(c), digestCfg)
		st.body(c, x, func(addr int) *occoll.Request { return cl.issue(x, n, addr) }, stride)
		x.Finish()
		finish[c.ID()] = c.Now()
	})
	d := requestDigest{
		Cell:     fmt.Sprintf("%s/%s/%dx%d", cl.name, st.name, topo.W, topo.H),
		Switches: chip.Engine.Switches() - sw0,
		Counters: trace.Sum(chip.Counter),
	}
	clocks, data := fnv.New64a(), fnv.New64a()
	buf := make([]byte, st.reqs*stride)
	for c := 0; c < n; c++ {
		fmt.Fprintf(clocks, "%d\n", int64(finish[c]))
		chip.Private(c).Read(buf, 0, len(buf))
		data.Write(buf)
	}
	d.Clocks = fmt.Sprintf("%016x", clocks.Sum64())
	d.Data = fmt.Sprintf("%016x", data.Sum64())
	if traced {
		ev := fnv.New64a()
		for _, e := range obs.Capture(rec, n, nil).Events {
			fmt.Fprintf(ev, "%+v\n", e)
		}
		d.Events = fmt.Sprintf("%016x", ev.Sum64())
	}
	return d
}

func loadRequestDigests(t *testing.T) []requestDigest {
	t.Helper()
	f, err := os.Open("testdata/request_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []requestDigest
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRequestDigestSchema pins the committed file's shape so a
// truncated or -short-tier file cannot make the comparison vacuous.
func TestRequestDigestSchema(t *testing.T) {
	rows := loadRequestDigests(t)
	if want := len(digestCollectives) * len(digestStyles) * len(harness.ScaleMeshes()); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := map[string]bool{}
	for i, r := range rows {
		if r.Cell == "" || seen[r.Cell] {
			t.Errorf("row %d: cell %q empty or repeated", i, r.Cell)
		}
		seen[r.Cell] = true
		if len(r.Clocks) != 16 || len(r.Data) != 16 || r.Switches <= 0 || r.Counters.FlagWaits <= 0 {
			t.Errorf("row %d (%s): unfilled field in %+v", i, r.Cell, r)
		}
		if (r.Events != "") != (r.Cell == digestTraced) {
			t.Errorf("row %d (%s): events hash present=%v, want only on %s", i, r.Cell, r.Events != "", digestTraced)
		}
	}
}

// TestRequestDigests runs the grid, one parallel subtest per cell, and
// compares each cell with its committed row exactly. A mismatch prints
// the row this build produces — it means simulated timing, the schedule
// or the probe count changed, which is a bug unless proven otherwise.
func TestRequestDigests(t *testing.T) {
	want := map[string]requestDigest{}
	for _, r := range loadRequestDigests(t) {
		want[r.Cell] = r
	}
	for _, topo := range harness.ScaleMeshes() {
		if testing.Short() && topo.NumCores() > 96 {
			continue
		}
		for coll := range digestCollectives {
			for style := range digestStyles {
				topo, coll, style := topo, coll, style // go.mod is pre-1.22: per-iteration copies
				cell := fmt.Sprintf("%s/%s/%dx%d", digestCollectives[coll].name, digestStyles[style].name, topo.W, topo.H)
				t.Run(cell, func(t *testing.T) {
					t.Parallel()
					got := requestCell(topo, coll, style, cell == digestTraced)
					if w := want[cell]; !reflect.DeepEqual(got, w) {
						out, _ := json.Marshal(got)
						t.Errorf("committed %+v, this build produces\n%s", w, out)
					}
				})
			}
		}
	}
}
