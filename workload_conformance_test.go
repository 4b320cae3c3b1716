package ocbcast_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	ocbcast "repro"
	"repro/internal/workload"
)

// The replay conformance suite pins System.Replay's contract: replaying a
// trace is EXACTLY issuing the documented call sequence by hand — same
// collectives, same addresses (workload.LayoutFor), same overlap slicing
// — so buffers and completion times must match bit for bit. Traces are
// seeded-random over every op, root, payload size and blocking/overlapped
// mix, across mesh shapes up to 8×8, in both scheduler modes.

// conformanceMeshes are the swept chip geometries (tiles are two cores,
// so 8×8 is a 128-core chip).
var conformanceMeshes = [][2]int{{6, 4}, {3, 2}, {8, 8}, {5, 3}}

// randomTrace builds a seeded random trace valid for an n-core chip:
// every op, random roots, 1–6-line payloads, issue deltas and a mix of
// blocking and overlapped records.
func randomTrace(rng *rand.Rand, n, records int) *workload.Trace {
	ops := workload.Ops()
	t := &workload.Trace{}
	for i := 0; i < records; i++ {
		r := workload.Record{
			Op:      ops[rng.Intn(len(ops))],
			Root:    rng.Intn(n),
			Lines:   1 + rng.Intn(6),
			DeltaUs: float64(rng.Intn(40)) / 4,
		}
		if rng.Intn(3) == 0 {
			r.ComputeUs = 1 + float64(rng.Intn(80))/2
		}
		t.Records = append(t.Records, r)
	}
	if err := t.ValidateFor(n); err != nil {
		panic(err)
	}
	return t
}

// stage writes the same deterministic pattern over the full replay
// footprint of every core of a system.
func stage(sys *ocbcast.System, l workload.Layout) {
	buf := make([]byte, l.TotalBytes())
	for core := 0; core < sys.N(); core++ {
		for off := range buf {
			buf[off] = byte(core*31 + off*7 + 11)
		}
		sys.WritePrivate(core, 0, buf)
	}
}

// issueByHand is the documented record-to-method mapping, written out
// longhand against the public API: the reference System.Replay must
// reproduce exactly.
func issueByHand(c *ocbcast.Core, t *workload.Trace, l workload.Layout) float64 {
	c.Barrier()
	for i := range t.Records {
		r := &t.Records[i]
		if r.DeltaUs > 0 {
			c.Compute(r.DeltaUs)
		}
		addr := l.Addr(i)
		if r.ComputeUs > 0 {
			var p *ocbcast.Request
			switch r.Op {
			case workload.OpBcast:
				p = c.IBcastOC(r.Root, addr, r.Lines)
			case workload.OpReduce:
				p = c.IReduceOC(r.Root, addr, r.Lines, ocbcast.SumInt64)
			case workload.OpAllReduce:
				p = c.IAllReduceOC(addr, r.Lines, ocbcast.SumInt64)
			case workload.OpScatter:
				p = c.IScatterOC(r.Root, addr, r.Lines)
			case workload.OpGather:
				p = c.IGatherOC(r.Root, addr, r.Lines)
			case workload.OpAllGather:
				p = c.IAllGatherOC(addr, r.Lines)
			}
			slice := r.ComputeUs / workload.DefaultPolls
			done := false
			for j := 0; j < workload.DefaultPolls; j++ {
				c.Compute(slice)
				if !done && p.Test() {
					done = true
				}
			}
			if !done {
				p.Wait()
			}
		} else {
			switch r.Op {
			case workload.OpBcast:
				c.Broadcast(r.Root, addr, r.Lines)
			case workload.OpReduce:
				c.Reduce(r.Root, addr, l.ScratchAddr, r.Lines, ocbcast.SumInt64)
			case workload.OpAllReduce:
				c.AllReduce(addr, l.ScratchAddr, r.Lines, ocbcast.SumInt64)
			case workload.OpScatter:
				c.Scatter(r.Root, addr, r.Lines)
			case workload.OpGather:
				c.Gather(r.Root, addr, r.Lines)
			case workload.OpAllGather:
				c.AllGather(addr, r.Lines)
			}
		}
	}
	return c.NowMicros()
}

// TestReplayConformance replays seeded random traces and issues the same
// call sequences by hand on identical twin systems: every core's final
// clock and every byte of the replay footprint must agree exactly, on
// every mesh.
func TestReplayConformance(t *testing.T) {
	for _, mesh := range conformanceMeshes {
		w, h := mesh[0], mesh[1]
		n := w * h * 2
		records := 10
		if n > 64 {
			records = 6
		}
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				tr := randomTrace(rand.New(rand.NewSource(seed*1000+int64(n))), n, records)
				l := workload.LayoutFor(tr, n)
				opts := ocbcast.Options{MeshWidth: w, MeshHeight: h}

				replaySys := ocbcast.New(opts)
				stage(replaySys, l)
				st, err := replaySys.Replay(tr)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}

				handSys := ocbcast.New(opts)
				stage(handSys, l)
				finish := make([]float64, n)
				handSys.Run(func(c *ocbcast.Core) {
					finish[c.ID()] = issueByHand(c, tr, l)
				})

				for id := 0; id < n; id++ {
					if st.FinishUs[id] != finish[id] {
						t.Fatalf("seed %d core %d: replay finished at %v µs, hand-issued at %v µs",
							seed, id, st.FinishUs[id], finish[id])
					}
					got := replaySys.ReadPrivate(id, 0, l.TotalBytes())
					want := handSys.ReadPrivate(id, 0, l.TotalBytes())
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d core %d: replayed buffers differ from hand-issued", seed, id)
					}
				}
			}
		})
	}
}
