package occoll

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/workload"
)

// run executes body on an n-core chip with per-core occoll state.
func run(n int, cfg Config, body func(c *rma.Core, x *Collectives)) *rma.Chip {
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		body(c, New(c, port, cfg))
	})
	return chip
}

// fillPayload writes a deterministic pseudo-random per-core payload.
func fillPayload(chip *rma.Chip, n, addr, nbytes, salt int) [][]byte {
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(salt*1000 + i)))
		b := make([]byte, nbytes)
		rng.Read(b)
		payloads[i] = b
		chip.Private(i).Write(addr, b)
	}
	return payloads
}

func TestReduceMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7} {
		for _, db := range []bool{true, false} {
			for _, n := range []int{2, 5, 16, 48} {
				for _, root := range []int{0, n - 1} {
					cfg := Config{K: k, BufLines: 4, DoubleBuffer: db}
					const lines = 11 // 3 chunks: 4+4+3
					nbytes := lines * scc.CacheLine
					chip := rma.NewChipN(scc.DefaultConfig(), n)
					payloads := fillPayload(chip, n, 0, nbytes, k*100+n)
					chip.Run(func(c *rma.Core) {
						x := New(c, rcce.NewPort(c), cfg)
						x.Reduce(root, 0, lines, collective.SumInt64)
					})
					got := make([]byte, nbytes)
					chip.Private(root).Read(got, 0, nbytes)
					want := oracle.Reference(workload.OpOf(workload.OpReduce), n, root, lines, 0, payloads, collective.SumInt64)
					if !bytes.Equal(got, want[root][0].Want) {
						t.Fatalf("k=%d db=%v n=%d root=%d: reduce result mismatch", k, db, n, root)
					}
					// Non-root contributions must be untouched.
					for i := 0; i < n; i++ {
						if i == root {
							continue
						}
						b := make([]byte, nbytes)
						chip.Private(i).Read(b, 0, nbytes)
						if !bytes.Equal(b, payloads[i]) {
							t.Fatalf("k=%d n=%d: core %d input clobbered", k, n, i)
						}
					}
				}
			}
		}
	}
}

func TestAllReduceDeliversEverywhere(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		const n, lines = 48, 10
		nbytes := lines * scc.CacheLine
		cfg := Config{K: k, BufLines: 3, DoubleBuffer: true}
		chip := rma.NewChipN(scc.DefaultConfig(), n)
		payloads := fillPayload(chip, n, 0, nbytes, k)
		chip.Run(func(c *rma.Core) {
			x := New(c, rcce.NewPort(c), cfg)
			x.AllReduce(0, lines, collective.MaxInt64)
		})
		ref := append([]byte(nil), payloads[0]...)
		for _, p := range payloads[1:] {
			collective.MaxInt64(ref, p)
		}
		for i := 0; i < n; i++ {
			got := make([]byte, nbytes)
			chip.Private(i).Read(got, 0, nbytes)
			if !bytes.Equal(got, ref) {
				t.Fatalf("k=%d: core %d allreduce result mismatch", k, i)
			}
		}
	}
}

func TestScatterGatherAllGather(t *testing.T) {
	for _, k := range []int{2, 7} {
		for _, lines := range []int{2, 7} { // below and above BufLines
			const n = 48
			cfg := Config{K: k, BufLines: 4, DoubleBuffer: true}
			bb := lines * scc.CacheLine
			chip := rma.NewChipN(scc.DefaultConfig(), n)
			// Root 3 holds n distinct blocks for scatter.
			blocks := make([][]byte, n)
			for i := range blocks {
				rng := rand.New(rand.NewSource(int64(7*n + i)))
				blocks[i] = make([]byte, bb)
				rng.Read(blocks[i])
				chip.Private(3).Write(i*bb, blocks[i])
			}
			gatherBase := 2 * n * bb
			agBase := 4 * n * bb
			chip.Run(func(c *rma.Core) {
				x := New(c, rcce.NewPort(c), cfg)
				x.Scatter(3, 0, lines)
				// Copy my block into the gather and allgather regions.
				blk := make([]byte, bb)
				c.Chip().Private(c.ID()).Read(blk, c.ID()*bb, bb)
				c.Chip().Private(c.ID()).Write(gatherBase+c.ID()*bb, blk)
				c.Chip().Private(c.ID()).Write(agBase+c.ID()*bb, blk)
				x.Gather(5, gatherBase, lines)
				x.AllGather(agBase, lines)
			})
			for i := 0; i < n; i++ {
				got := make([]byte, bb)
				chip.Private(i).Read(got, i*bb, bb)
				if !bytes.Equal(got, blocks[i]) {
					t.Fatalf("k=%d lines=%d: core %d scatter block mismatch", k, lines, i)
				}
			}
			for i := 0; i < n; i++ {
				got := make([]byte, bb)
				chip.Private(5).Read(got, gatherBase+i*bb, bb)
				if !bytes.Equal(got, blocks[i]) {
					t.Fatalf("k=%d lines=%d: gather block %d mismatch", k, lines, i)
				}
			}
			for c := 0; c < n; c++ {
				for i := 0; i < n; i++ {
					got := make([]byte, bb)
					chip.Private(c).Read(got, agBase+i*bb, bb)
					if !bytes.Equal(got, blocks[i]) {
						t.Fatalf("k=%d lines=%d: core %d allgather block %d mismatch", k, lines, c, i)
					}
				}
			}
		}
	}
}

// TestMixedFamilies interleaves occoll operations with OC-Bcast and the
// RCCE two-sided layer on one chip — the begin() quiesce must keep the
// shared MPB region consistent even after a large two-sided send has
// scribbled over every flag line.
func TestMixedFamilies(t *testing.T) {
	const n, lines = 8, 9
	nbytes := lines * scc.CacheLine
	occfg := occore.DefaultConfig() // K=7, BufLines=96: RCCE sends overlap its flags
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	payloads := fillPayload(chip, n, 0, nbytes, 42)
	bcastSrc := make([]byte, nbytes)
	rand.New(rand.NewSource(99)).Read(bcastSrc)
	chip.Private(2).Write(1<<16, bcastSrc)

	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		x := New(c, port, occfg)
		bc := occore.NewBroadcaster(c, occfg)
		x.AllReduce(0, lines, collective.SumInt64)
		bc.Bcast(2, 1<<16, lines)
		// A 240-line two-sided transfer stages over lines 0..239 of the
		// sender's MPB, covering occoll's and OC-Bcast's flag lines.
		if c.ID() == 0 {
			port.Send(1, 1<<18, 240)
		} else if c.ID() == 1 {
			port.Recv(0, 1<<18, 240)
		}
		x.AllReduce(1<<17, lines, collective.SumInt64) // all-zero inputs
		x.Reduce(1, 0, lines, collective.SumInt64)
	})

	ref := oracle.Reference(workload.OpOf(workload.OpAllReduce), n, 0, lines, 0, payloads, collective.SumInt64)[0][0].Want
	for i := 0; i < n; i++ {
		got := make([]byte, nbytes)
		chip.Private(i).Read(got, 1<<16, nbytes)
		if !bytes.Equal(got, bcastSrc) {
			t.Fatalf("core %d bcast payload mismatch after mixing", i)
		}
	}
	// The final reduce onto core 1: inputs were the first allreduce's
	// results (= ref on every core), summed n times.
	want := make([]byte, nbytes)
	for lane := 0; lane+8 <= nbytes; lane += 8 {
		v := int64(binary.LittleEndian.Uint64(ref[lane:])) * int64(n)
		binary.LittleEndian.PutUint64(want[lane:], uint64(v))
	}
	got := make([]byte, nbytes)
	chip.Private(1).Read(got, 0, nbytes)
	if !bytes.Equal(got, want) {
		t.Fatalf("reduce-after-mixing result mismatch")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Config{K: 7, BufLines: 96, DoubleBuffer: true}); err != nil {
		t.Fatalf("paper default config rejected: %v", err)
	}
	if err := Validate(Config{K: 24, BufLines: 96, DoubleBuffer: true}); err == nil {
		t.Fatal("oversized layout accepted")
	}
	if err := Validate(Config{K: 0, BufLines: 96}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSingleCoreNoOp(t *testing.T) {
	run(1, Config{K: 7, BufLines: 96, DoubleBuffer: true}, func(c *rma.Core, x *Collectives) {
		x.Reduce(0, 0, 4, collective.SumInt64)
		x.AllReduce(0, 4, collective.SumInt64)
		x.Scatter(0, 0, 4)
		x.Gather(0, 0, 4)
		x.AllGather(0, 4)
	})
}

// TestLaneIssueAccounting pins the round-robin lane claim: issues spread
// over the configured lanes with counts differing by at most one, and
// LaneIssues sums to the total issue count.
func TestLaneIssueAccounting(t *testing.T) {
	const n, lanes, issues = 4, 3, 7
	cfg := Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: lanes}
	counts := make([]uint64, lanes)
	run(n, cfg, func(c *rma.Core, x *Collectives) {
		if x.Lanes() != lanes {
			t.Errorf("Lanes() = %d, want %d", x.Lanes(), lanes)
		}
		for i := 0; i < issues; i++ {
			x.IAllReduce(0, 1, collective.SumInt64).Wait()
		}
		x.Finish()
		if c.ID() == 0 {
			copy(counts, x.LaneIssues())
		}
	})
	var total uint64
	for i, got := range counts {
		want := uint64(issues / lanes)
		if i < issues%lanes {
			want++
		}
		if got != want {
			t.Errorf("lane %d carried %d issues, want %d (round-robin)", i, got, want)
		}
		total += got
	}
	if total != issues {
		t.Errorf("lane issues sum to %d, want %d", total, issues)
	}
}

// LaneIssues reports how many non-blocking collectives each MPB lane has
// carried on this core, indexed by lane. Lanes are claimed round-robin
// by issue order, so the counts differ by at most one.
func (x *Collectives) LaneIssues() []uint64 {
	out := make([]uint64, len(x.lanes))
	for i := range x.lanes {
		out[i] = x.lanes[i].issues
	}
	return out
}
