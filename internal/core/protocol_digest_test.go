package core_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Every protocol that runs as a step program — OC-Bcast's §4 pipeline
// with its root-change fence and MPMD activation, RCCE's barrier and
// two-sided handshakes, and the one-sided family's broadcast half — is
// pinned to committed digests: each cell of the grid below must
// reproduce its row of testdata/protocol_digests.json exactly. The rows
// were recorded at the last commit whose core and rcce protocols were
// hand-written program-counter machines (619f95e), covering what
// harness/testdata/mode_digests.json and occoll's request_digests.json
// leave out: the ablation configs, K = 1 and 47, rotating roots through
// the private and the shared fence, Announce/HandleAnnounce, and
// multi-chunk and unequal SendRecv.

// protocolDigest is one row of testdata/protocol_digests.json: an
// FNV-1a-64 over the per-core finish clocks (ps), every core's
// delivered private bytes and the summed data-movement counters, plus
// the engine's slow-path switch count.
type protocolDigest struct {
	Cell     string `json:"cell"`
	Hash     string `json:"fnv64"`
	Switches int64  `json:"switches"`
}

// protocolCell is one cell of the grid: body runs on each of n cores
// over span seeded bytes of private memory per core.
type protocolCell struct {
	name string
	n    int
	span int
	body func(c *rma.Core)
}

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

func protocolCells() []protocolCell {
	var cells []protocolCell
	for _, v := range bcastVariants {
		for _, rs := range rootSchedules {
			for _, k := range gridK {
				for _, lines := range gridLines {
					for _, n := range gridCores {
						v, rs, lines := v, rs, lines // go.mod is pre-1.22: per-iteration copies
						cfg := v.cfg
						cfg.K = k
						roots, stride := rs.roots(n), lines*scc.CacheLine
						cells = append(cells, protocolCell{
							name: fmt.Sprintf("bcast/%s/%s/k%d/l%d/n%d", v.name, rs.name, k, lines, n),
							n:    n, span: len(roots) * stride,
							body: func(c *rma.Core) {
								b := core.NewBroadcaster(c, cfg)
								if rs.shared {
									b.SetFence(rcce.NewPort(c))
								}
								skew(c)
								for i, root := range roots {
									b.Bcast(root, i*stride, lines)
								}
							},
						})
					}
				}
			}
		}
	}
	// MPMD: a multi-chunk Announce from a non-zero root to receivers busy
	// with unrelated work, then an SPMD Bcast on the adopted base.
	for _, n := range []int{2, 8, 48} {
		root := n / 2
		cells = append(cells, protocolCell{
			name: fmt.Sprintf("mpmd/n%d", n), n: n, span: 320 * scc.CacheLine,
			body: func(c *rma.Core) {
				b := core.NewBroadcaster(c, core.DefaultConfig())
				if c.ID() == root {
					b.Announce(0, 300)
				} else {
					c.Compute(sim.Duration(c.ID()) * 3 * sim.Microsecond)
					b.HandleAnnounce()
				}
				b.Bcast(root, 300*scc.CacheLine, 20)
			},
		})
	}
	for _, n := range []int{1, 2, 3, 8, 48} {
		cells = append(cells, protocolCell{
			name: fmt.Sprintf("barrier/n%d", n), n: n,
			body: func(c *rma.Core) {
				p := rcce.NewPort(c)
				for rep := 0; rep < 3; rep++ {
					c.Compute(sim.Duration((c.ID()*7+rep*3)%11) * 400 * sim.Nanosecond)
					p.Barrier()
				}
			},
		})
	}
	// Two-sided, 4 cores. ring: every core sends right and receives from
	// the left in one SendRecv, even cores sending s lines and odd cores r
	// (so each receive matches its sender). pair: core 2j sends s lines to
	// 2j+1 and receives r lines back through separate Send and Recv.
	for _, sr := range gridPairs {
		s, r := sr[0], sr[1]
		big := s
		if r > big {
			big = r
		}
		recvAddr := big * scc.CacheLine
		cells = append(cells, protocolCell{
			name: fmt.Sprintf("sendrecv/ring/s%d-r%d", s, r), n: 4, span: 2 * recvAddr,
			body: func(c *rma.Core) {
				p, me := rcce.NewPort(c), c.ID()
				skew(c)
				send, recv := s, r
				if me%2 == 1 {
					send, recv = r, s
				}
				p.SendRecv((me+1)%4, 0, send, (me+3)%4, recvAddr, recv)
			},
		}, protocolCell{
			name: fmt.Sprintf("sendrecv/pair/s%d-r%d", s, r), n: 4, span: 2 * recvAddr,
			body: func(c *rma.Core) {
				p, me := rcce.NewPort(c), c.ID()
				skew(c)
				if me%2 == 0 {
					p.Send(me+1, 0, s)
					p.Recv(me+1, recvAddr, r)
				} else {
					p.Recv(me-1, recvAddr, s)
					p.Send(me-1, 0, r)
				}
			},
		})
	}
	// The one-sided family's broadcast half (the same §4 pipeline over a
	// lane's flags, leaf-direct and drained everywhere) at the fan-outs
	// and buffer counts request_digests.json does not visit: three chunks
	// of 24 lines from a non-zero root, alone, after a reduction and
	// after a gather.
	for _, op := range []string{"bcast", "allreduce", "allgather"} {
		for _, double := range []bool{true, false} {
			for _, k := range []int{1, 2, 47} {
				for _, n := range []int{3, 8, 48} {
					op, n := op, n
					cfg := occoll.Config{K: k, BufLines: 24, DoubleBuffer: double}
					lines, span := 56, 56
					if op == "allgather" {
						lines, span = 2, 2*n
					}
					bufs := map[bool]string{true: "double", false: "single"}[double]
					cells = append(cells, protocolCell{
						name: fmt.Sprintf("occoll/%s/%s/k%d/n%d", op, bufs, k, n),
						n:    n, span: span * scc.CacheLine,
						body: func(c *rma.Core) {
							x := occoll.New(c, rcce.NewPort(c), cfg)
							skew(c)
							switch op {
							case "bcast":
								x.Bcast(n-1, 0, lines)
							case "allreduce":
								x.AllReduce(0, lines, collective.SumInt64)
							default:
								x.AllGather(0, lines)
							}
							x.Finish()
						},
					})
				}
			}
		}
	}
	return cells
}

// run simulates the cell on a fresh chip and digests it. moves is the
// chip's count of queued flag writes a bulk write over their line moved
// to the pending list (mem.PendingStats): not part of the digest.
func (pc protocolCell) run() (d protocolDigest, moves int64) {
	chip := rma.NewChipN(scc.DefaultConfig(), pc.n)
	buf := make([]byte, pc.span)
	for c := 0; c < pc.n; c++ {
		for i := range buf {
			buf[i] = byte(i*13 + c*31 + 5)
		}
		chip.Private(c).Write(0, buf)
	}
	finish := make([]sim.Time, pc.n)
	chip.Run(func(c *rma.Core) {
		pc.body(c)
		finish[c.ID()] = c.Now()
	})
	h := fnv.New64a()
	for c := 0; c < pc.n; c++ {
		fmt.Fprintf(h, "%d\n", int64(finish[c]))
		chip.Private(c).Read(buf, 0, len(buf))
		h.Write(buf)
	}
	fmt.Fprintf(h, "%+v\n", trace.Sum(chip.Counter))
	return protocolDigest{Cell: pc.name, Hash: fmt.Sprintf("%016x", h.Sum64()), Switches: chip.Engine.Switches()}, chip.PendingStats().Moves
}

func loadProtocolDigests(t *testing.T) []protocolDigest {
	t.Helper()
	f, err := os.Open("testdata/protocol_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []protocolDigest
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestProtocolDigestSchema pins the committed file's shape — one filled
// row per grid cell, in grid order — so a truncated or -short-tier file
// cannot make the comparison vacuous.
func TestProtocolDigestSchema(t *testing.T) {
	rows, cells := loadProtocolDigests(t), protocolCells()
	if len(rows) != len(cells) {
		t.Fatalf("%d rows, want %d", len(rows), len(cells))
	}
	for i, r := range rows {
		if r.Cell != cells[i].name {
			t.Errorf("row %d is cell %q, want %q", i, r.Cell, cells[i].name)
		}
		// A lone core's barrier has nobody to wait for: no switch.
		if len(r.Hash) != 16 || (r.Switches <= 0 && r.Cell != "barrier/n1") {
			t.Errorf("row %d (%s): unfilled field in %+v", i, r.Cell, r)
		}
	}
}

// TestProtocolDigests runs the grid (every fifth cell under -short) and
// compares each cell with its committed row exactly. A mismatch prints
// the row this build produces — it means simulated timing, delivered
// bytes, op counts or the schedule changed, which is a bug unless
// proven otherwise. Each cell logs its queue→list moves (-v shows them):
// a bulk write landed on a line whose flag writes had not been read.
// That is legal where protocol families alternate behind a barrier, and
// it is also what two owners of one line look like at run time, so the
// count is there to be read, not asserted on.
func TestProtocolDigests(t *testing.T) {
	want := map[string]protocolDigest{}
	for _, r := range loadProtocolDigests(t) {
		want[r.Cell] = r
	}
	for i, pc := range protocolCells() {
		if testing.Short() && i%5 != 0 {
			continue
		}
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			got, moves := pc.run()
			if got != want[pc.name] {
				out, _ := json.Marshal(got)
				t.Errorf("committed %+v, this build produces\n%s", want[pc.name], out)
			}
			t.Logf("queue→list moves: %d", moves)
		})
	}
}
