package occoll_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/harness"
	"repro/internal/occoll"
	"repro/internal/oracle"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The non-blocking side of the progress engine is pinned to committed
// digests: every collective × every way of completing a request × the
// four scaling topologies must deliver the host reference's bytes and
// reproduce testdata/request_digests.json exactly — per-core finish
// clocks, delivered bytes, the engine's slow-path switch count and the
// summed data-movement counters (FlagPolls/FlagWaits included, so the
// number of failed and successful probes is part of the contract). The
// rows were recorded at the last commit that ran each request's protocol
// on a goroutine coroutine; harness/testdata/mode_digests.json covers
// only blocking allreduce/oc.

const digestFile = "testdata/request_digests.json"

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

// digestCollectives issue one request each at addr, of lines per message
// or per block; op is the collective's row of the op table.
var digestCollectives = []struct {
	name  string
	op    string
	issue func(x *occoll.Collectives, addr, lines int) *occoll.Request
}{
	{"IBcast", workload.OpBcast, func(x *occoll.Collectives, addr, lines int) *occoll.Request {
		return x.IBcast(digestRoot, addr, lines)
	}},
	{"IReduce", workload.OpReduce, func(x *occoll.Collectives, addr, lines int) *occoll.Request {
		return x.IReduce(digestRoot, addr, lines, collective.SumInt64)
	}},
	{"IAllReduce", workload.OpAllReduce, func(x *occoll.Collectives, addr, lines int) *occoll.Request {
		return x.IAllReduce(addr, lines, collective.SumInt64)
	}},
	{"IScatter", workload.OpScatter, func(x *occoll.Collectives, addr, lines int) *occoll.Request {
		return x.IScatter(digestRoot, addr, lines)
	}},
	{"IGather", workload.OpGather, func(x *occoll.Collectives, addr, lines int) *occoll.Request {
		return x.IGather(digestRoot, addr, lines)
	}},
	{"IAllGather", workload.OpAllGather, (*occoll.Collectives).IAllGather},
	{"IAllGatherRing", workload.OpAllGather, (*occoll.Collectives).IAllGatherRing},
}

// digestStyles are the three ways a core can complete requests; each
// issues its reqs requests through issue(addr), stride bytes apart, and
// returns with every handle consumed.
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

func requestCells() []oracle.Cell {
	var cells []oracle.Cell
	for _, topo := range harness.ScaleMeshes() {
		for coll, cl := range digestCollectives {
			for _, st := range digestStyles {
				coll, cl, st, n := coll, cl, st, topo.NumCores() // go.mod is pre-1.22: per-iteration copies
				op, lines := workload.OpOf(cl.op), digestLines
				if op.Blocks {
					lines = digestBlock(n)
				}
				stride := op.Region(n, lines) * scc.CacheLine
				name := fmt.Sprintf("%s/%s/%dx%d", cl.name, st.name, topo.W, topo.H)
				cells = append(cells, oracle.Cell{
					Name: name, Class: cl.name + "/" + st.name, Chip: topo, N: n, Traced: name == digestTraced,
					Stage: func(id int) []byte {
						b := make([]byte, st.reqs*stride)
						for i := range b {
							b[i] = byte(i*11 + id*29 + coll + 3)
						}
						return b
					},
					Body: func(c *rma.Core) {
						x := occoll.New(c, rcce.NewPort(c), digestCfg)
						st.body(c, x, func(addr int) *occoll.Request { return cl.issue(x, addr, lines) }, stride)
						x.Finish()
					},
					Want: func(staged [][]byte) [][]oracle.Span {
						var parts [][][]oracle.Span
						for r := 0; r < st.reqs; r++ {
							parts = append(parts, oracle.Reference(op, n, digestRoot, lines, r*stride, staged, collective.SumInt64))
						}
						return oracle.Join(parts...)
					},
				})
			}
		}
	}
	return cells
}

// TestRequestDigestSchema: a truncated file cannot make the comparison vacuous.
func TestRequestDigestSchema(t *testing.T) {
	if _, err := oracle.Load(digestFile, requestCells()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDigests holds every cell to its verdict and its committed
// row (oracle.Check).
func TestRequestDigests(t *testing.T) { oracle.Check(t, digestFile, requestCells()) }
