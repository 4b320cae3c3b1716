package core_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/oracle"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every protocol that runs as a step program — OC-Bcast's §4 pipeline
// with its root-change fence and MPMD activation, RCCE's barrier and
// two-sided handshakes, and the one-sided family's broadcast half — is
// pinned to committed digests: each cell of the grid below must deliver
// the host reference's bytes and reproduce its row of
// testdata/protocol_digests.json exactly. The runs were first recorded
// at the last commit whose core and rcce protocols were hand-written
// program-counter machines (619f95e), covering what
// harness/testdata/mode_digests.json and occoll's request_digests.json
// leave out: the ablation configs, K = 1 and 47, rotating roots through
// the private and the shared fence, Announce/HandleAnnounce, and
// multi-chunk and unequal SendRecv.

const digestFile = "testdata/protocol_digests.json"

// skew staggers the cores' arrival so some waits block and some are
// already satisfied.
func skew(c *rma.Core) { c.Compute(sim.Duration(c.ID()%5) * 700 * sim.Nanosecond) }

// bcastVariants are the OC-Bcast configurations of the grid (K is
// filled per cell): the paper's, and its three ablations.
var bcastVariants = []struct {
	name string
	cfg  core.Config
}{
	{"default", core.Config{BufLines: 96, DoubleBuffer: true}},
	{"single", core.Config{BufLines: 96}},
	{"seqnotify", core.Config{BufLines: 96, DoubleBuffer: true, SequentialNotify: true}},
	{"leafdirect", core.Config{BufLines: 96, DoubleBuffer: true, LeafDirect: true}},
}

// rootSchedules are the three-broadcast root sequences: a fixed root
// (the monotonic sequence base carries across broadcasts, no fence),
// and a changing root quiesced by the private fence or by the shared
// rcce barrier (SetFence).
var rootSchedules = []struct {
	name   string
	roots  func(n int) [3]int
	shared bool
}{
	{"root0", func(int) [3]int { return [3]int{} }, false},
	{"rotate", func(n int) [3]int { return [3]int{0, n - 1, n / 2} }, false},
	{"rotate-port", func(n int) [3]int { return [3]int{0, n - 1, n / 2} }, true},
}

var (
	gridK     = []int{1, 2, 7, 47}
	gridLines = []int{1, 96, 97, 300}
	gridCores = []int{2, 3, 8, 48}
	// gridPairs are the (send, recv) line counts of the two-sided cells:
	// one line, exactly one and just over one RCCE chunk, unequal sides
	// in both directions, and two chunks and a bit on each side.
	gridPairs = [][2]int{{1, 1}, {251, 251}, {252, 100}, {100, 252}, {600, 30}, {30, 600}, {503, 503}}
)

// cell stages span lines of seeded bytes on each of n cores.
func cell(name, class string, n, span int, body func(c *rma.Core)) oracle.Cell {
	return oracle.Cell{
		Name: name, Class: class, N: n, Body: body,
		Stage: func(id int) []byte {
			b := make([]byte, span*scc.CacheLine)
			for i := range b {
				b[i] = byte(i*13 + id*31 + 5)
			}
			return b
		},
	}
}

// bcast is the reference of a broadcast of lines from root at addr.
func bcast(n, root, lines, addr int, staged [][]byte) [][]oracle.Span {
	return oracle.Reference(workload.OpOf(workload.OpBcast), n, root, lines, addr, staged, nil)
}

func protocolCells() []oracle.Cell {
	var cells []oracle.Cell
	for _, v := range bcastVariants {
		for _, rs := range rootSchedules {
			for _, k := range gridK {
				for _, lines := range gridLines {
					for _, n := range gridCores {
						v, rs, lines, n := v, rs, lines, n // go.mod is pre-1.22: per-iteration copies
						cfg := v.cfg
						cfg.K = k
						roots := rs.roots(n)
						c := cell(fmt.Sprintf("bcast/%s/%s/k%d/l%d/n%d", v.name, rs.name, k, lines, n),
							fmt.Sprintf("bcast/%s/%s/k%d", v.name, rs.name, k), n, len(roots)*lines,
							func(c *rma.Core) {
								b := core.NewBroadcaster(c, cfg)
								if rs.shared {
									b.SetFence(rcce.NewPort(c))
								}
								skew(c)
								for i, root := range roots {
									b.Bcast(root, i*lines*scc.CacheLine, lines)
								}
							})
						c.Want = func(staged [][]byte) [][]oracle.Span {
							call := func(i int) [][]oracle.Span { return bcast(n, roots[i], lines, i*lines*scc.CacheLine, staged) }
							return oracle.Join(call(0), call(1), call(2))
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	// MPMD: a multi-chunk Announce from a non-zero root to receivers busy
	// with unrelated work, then an SPMD Bcast on the adopted base.
	for _, n := range []int{2, 8, 48} {
		n, root := n, n/2
		c := cell(fmt.Sprintf("mpmd/n%d", n), "mpmd", n, 320, func(c *rma.Core) {
			b := core.NewBroadcaster(c, core.DefaultConfig())
			if c.ID() == root {
				b.Announce(0, 300)
			} else {
				c.Compute(sim.Duration(c.ID()) * 3 * sim.Microsecond)
				b.HandleAnnounce()
			}
			b.Bcast(root, 300*scc.CacheLine, 20)
		})
		c.Want = func(staged [][]byte) [][]oracle.Span {
			return oracle.Join(bcast(n, root, 300, 0, staged), bcast(n, root, 20, 300*scc.CacheLine, staged))
		}
		cells = append(cells, c)
	}
	for _, n := range []int{1, 2, 3, 8, 48} {
		cells = append(cells, cell(fmt.Sprintf("barrier/n%d", n), "barrier", n, 0, func(c *rma.Core) {
			p := rcce.NewPort(c)
			for rep := 0; rep < 3; rep++ {
				c.Compute(sim.Duration((c.ID()*7+rep*3)%11) * 400 * sim.Nanosecond)
				p.Barrier()
			}
		}))
	}
	// Two-sided, 4 cores. ring: every core sends right and receives from
	// the left in one SendRecv, even cores sending s lines and odd cores r
	// (so each receive matches its sender). pair: core 2j sends s lines to
	// 2j+1 and receives r lines back through separate Send and Recv.
	// Either way a core keeps its own bytes below recvAddr and receives
	// its peer's there: r lines on an even core, s on an odd one.
	for _, sr := range gridPairs {
		s, r := sr[0], sr[1]
		big := max(s, r)
		recvAddr := big * scc.CacheLine
		received := func(peer func(me int) int) func(staged [][]byte) [][]oracle.Span {
			return func(staged [][]byte) [][]oracle.Span {
				want := make([][]oracle.Span, 4)
				for me := range want {
					recv := map[bool]int{true: r, false: s}[me%2 == 0]
					want[me] = []oracle.Span{{Want: staged[me][:recvAddr]}, {Off: recvAddr, Want: staged[peer(me)][:recv*scc.CacheLine]}}
				}
				return want
			}
		}
		ring := cell(fmt.Sprintf("sendrecv/ring/s%d-r%d", s, r), "sendrecv/ring", 4, 2*big, func(c *rma.Core) {
			p, me := rcce.NewPort(c), c.ID()
			skew(c)
			send, recv := s, r
			if me%2 == 1 {
				send, recv = r, s
			}
			p.SendRecv((me+1)%4, 0, send, (me+3)%4, recvAddr, recv)
		})
		ring.Want = received(func(me int) int { return (me + 3) % 4 })
		pair := cell(fmt.Sprintf("sendrecv/pair/s%d-r%d", s, r), "sendrecv/pair", 4, 2*big, func(c *rma.Core) {
			p, me := rcce.NewPort(c), c.ID()
			skew(c)
			if me%2 == 0 {
				p.Send(me+1, 0, s)
				p.Recv(me+1, recvAddr, r)
			} else {
				p.Recv(me-1, recvAddr, s)
				p.Send(me-1, 0, r)
			}
		})
		pair.Want = received(func(me int) int { return me ^ 1 })
		cells = append(cells, ring, pair)
	}
	// The one-sided family's broadcast half (the same §4 pipeline over a
	// lane's flags, leaf-direct and drained everywhere) at the fan-outs
	// and buffer counts request_digests.json does not visit: three chunks
	// of 24 lines from a non-zero root, alone, after a reduction and
	// after a gather.
	for _, op := range []string{workload.OpBcast, workload.OpAllReduce, workload.OpAllGather} {
		for _, double := range []bool{true, false} {
			for _, k := range []int{1, 2, 47} {
				for _, n := range []int{3, 8, 48} {
					op, n, cfg := workload.OpOf(op), n, occoll.Config{K: k, BufLines: 24, DoubleBuffer: double}
					lines := 56
					if op.Blocks {
						lines = 2
					}
					bufs := map[bool]string{true: "double", false: "single"}[double]
					c := cell(fmt.Sprintf("occoll/%s/%s/k%d/n%d", op.Name, bufs, k, n), "occoll/"+op.Name+"/"+bufs,
						n, op.Region(n, lines), func(c *rma.Core) {
							x := occoll.New(c, rcce.NewPort(c), cfg)
							skew(c)
							switch op.Name {
							case workload.OpBcast:
								x.Bcast(n-1, 0, lines)
							case workload.OpAllReduce:
								x.AllReduce(0, lines, collective.SumInt64)
							default:
								x.AllGather(0, lines)
							}
							x.Finish()
						})
					c.Want = func(staged [][]byte) [][]oracle.Span {
						return oracle.Reference(op, n, n-1, lines, 0, staged, collective.SumInt64)
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// TestProtocolDigestSchema: a truncated file cannot make the comparison vacuous.
func TestProtocolDigestSchema(t *testing.T) {
	if _, err := oracle.Load(digestFile, protocolCells()); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolDigests holds every cell to its verdict and its committed
// row (oracle.Check).
func TestProtocolDigests(t *testing.T) { oracle.Check(t, digestFile, protocolCells()) }
