package ocbcast_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	ocbcast "repro"
	"repro/internal/algsel"
	"repro/internal/workload"
)

// FuzzCollectivePayload round-trips fuzz-derived payloads through
// ScatterOC followed by a non-blocking IGatherOC: the root's scattered
// blocks must land intact on every core, and gathering them back must
// reconstruct the root's original region bit-for-bit. The fuzzer also
// drives the chip geometry knobs (core count, fan-out, chunk size), so it
// explores pipeline shapes the fixed tests don't.
func FuzzCollectivePayload(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), uint8(4), uint8(3), uint8(7))
	f.Add([]byte{0xff}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte(nil), uint8(5), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, linesB, coresB, kB uint8) {
		lines := 1 + int(linesB)%6
		n := 2 + int(coresB)%7
		k := 1 + int(kB)%7
		chunk := []int{2, 3, 96}[int(linesB>>4)%3]
		root := int(coresB>>4) % n

		blockBytes := lines * ocbcast.CacheLineBytes
		region := make([]byte, n*blockBytes)
		for i := range region {
			if len(data) > 0 {
				region[i] = data[i%len(data)]
			}
		}

		sys := ocbcast.New(ocbcast.Options{Cores: n, K: k, ChunkLines: chunk})
		sys.WritePrivate(root, 0, region)
		sys.Run(func(c *ocbcast.Core) {
			c.ScatterOC(root, 0, lines)
			r := c.IGatherOC(root, 0, lines)
			for !r.Test() {
				c.Compute(0.3)
			}
		})

		// Every core holds its own block after the scatter (the gather
		// does not disturb it), and the root's region is reconstructed.
		for i := 0; i < n; i++ {
			got := sys.ReadPrivate(i, i*blockBytes, blockBytes)
			want := region[i*blockBytes : (i+1)*blockBytes]
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d k=%d chunk=%d root=%d lines=%d: core %d block corrupted", n, k, chunk, root, lines, i)
			}
		}
		if got := sys.ReadPrivate(root, 0, n*blockBytes); !bytes.Equal(got, region) {
			t.Fatalf("n=%d k=%d chunk=%d root=%d lines=%d: root region not reconstructed", n, k, chunk, root, lines)
		}
	})
}

// FuzzMixedFamilies runs a sequence of at most six public calls that mix
// the collective families — a Send/Recv pair, Broadcast, the default
// (hybrid) AllReduce, AllReduceOC and Gather — at 1..600 lines of nonzero
// payload, a Barrier between calls, and checks every core's bytes against
// the host reference. Each call owns a disjoint address region, so the
// reference of one call does not depend on the others: any difference is
// one family's MPB lines corrupting another's.
//
// prog holds three bytes per call: the call kind, then the line count
// (1 + a 16-bit value mod 600); the kind byte's high bits also pick the
// root or the send/recv pair.
func FuzzMixedFamilies(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 63, 25, 0, 192, 1, 0, 63})               // Broadcast, 193-line Send/Recv from core 1 to 2, Broadcast
	f.Add(uint8(6), []byte{2, 0, 255, 2, 1, 255})                         // AllReduce at 256 and 512 lines
	f.Add(uint8(2), []byte{0, 1, 43, 3, 0, 63, 4, 0, 200})                // Send/Recv 300, AllReduceOC, Gather
	f.Add(uint8(0), []byte{0x24, 2, 87, 0x31, 0, 9, 0x13, 1, 0, 2, 0, 1}) // 600-line Gather, rooted calls off core 0
	// The op each call kind runs; kind 0 is the Send/Recv pair.
	kindOp := []string{"", workload.OpBcast, workload.OpAllReduce, workload.OpAllReduce, workload.OpGather}
	f.Fuzz(func(t *testing.T, nB uint8, prog []byte) {
		n := 2 + int(nB)%7
		type call struct{ kind, lines, a, b int }
		var calls []call
		for i := 0; i+2 < len(prog) && len(calls) < 6; i += 3 {
			c := call{kind: int(prog[i]) % 5, lines: 1 + (int(prog[i+1])<<8|int(prog[i+2]))%600}
			c.a = int(prog[i]>>4) % n
			c.b = (c.a + 1 + int(prog[i]>>3)%(n-1)) % n
			calls = append(calls, c)
		}
		const region = 4 << 20 // one call's addresses: data, then scratch 2 MiB up
		rng := uint64(nB)*0x9e3779b97f4a7c15 + uint64(len(prog))
		sys := ocbcast.New(ocbcast.Options{Cores: n})
		in := make([][][]byte, len(calls)) // in[call][core]
		for j, c := range calls {
			in[j] = make([][]byte, n)
			size := c.lines * ocbcast.CacheLineBytes
			if op := workload.OpOf(kindOp[c.kind]); op != nil {
				size = op.Region(n, c.lines) * ocbcast.CacheLineBytes
			}
			for i := range in[j] {
				b := make([]byte, size)
				for k := range b {
					rng = rng*6364136223846793005 + 1442695040888963407
					b[k] = byte(rng>>56) | 1
				}
				in[j][i] = b
				sys.WritePrivate(i, j*region, b)
			}
		}
		sys.Run(func(c *ocbcast.Core) {
			for j, cl := range calls {
				addr := j * region
				switch cl.kind {
				case 0:
					if c.ID() == cl.a {
						c.Send(cl.b, addr, cl.lines)
					} else if c.ID() == cl.b {
						c.Recv(cl.a, addr, cl.lines)
					}
				case 1:
					c.Broadcast(cl.a, addr, cl.lines)
				case 2:
					c.AllReduce(addr, addr+region/2, cl.lines, ocbcast.SumInt64)
				case 3:
					c.AllReduceOC(addr, cl.lines, ocbcast.SumInt64)
				case 4:
					c.Gather(cl.a, addr, cl.lines)
				}
				c.Barrier()
			}
		})
		for j, cl := range calls {
			want := make([][]span, n)
			if op := workload.OpOf(kindOp[cl.kind]); op != nil {
				want = reference(op, n, cl.a, cl.lines, in[j])
			} else { // Send/Recv: the receiver holds the sender's bytes, every other core its own
				for i := range want {
					want[i] = []span{{0, in[j][i]}}
				}
				want[cl.b] = []span{{0, in[j][cl.a]}}
			}
			checkReference(t, sys, want, j*region, fmt.Sprintf("n=%d calls %+v: call %d", n, calls, j))
		}
	})
}

// FuzzFootprint holds every registered collective algorithm to the op
// table (workload.Op): it runs one call — an op, one of its registered
// algorithms through Options.Algorithm and the generic method, or one of
// the three Broadcast* baselines — on n = 2..12 cores at 1..600 lines,
// with distinct nonzero bytes staged in each core's region, its scratch
// and a guard block on each side of both. The guaranteed result must
// equal the host reference, and no byte outside the region and the
// scratch may change on any core.
func FuzzFootprint(f *testing.F) {
	for o, op := range workload.Ops() {
		for a := range footprintAlgs(op) {
			f.Add(uint8(o), uint8(a), uint8(6), uint8(3), uint16(2)) // n 8, 3 lines, root 3
		}
		f.Add(uint8(o), uint8(0), uint8(3), uint8(4), uint16(502)) // n 5, 503 lines (multi-chunk), root 4
	}
	f.Fuzz(func(t *testing.T, opB, algB, nB, rootB uint8, linesB uint16) {
		name := workload.Ops()[int(opB)%len(workload.Ops())]
		op := workload.OpOf(name)
		algs := footprintAlgs(name)
		alg := algs[int(algB)%len(algs)]
		n := 2 + int(nB)%11
		root := int(rootB) % n
		lines := 1 + int(linesB)%600

		// Each core's memory: guard | region | guard | scratch | guard.
		guard := lines * ocbcast.CacheLineBytes
		size := op.Region(n, lines) * ocbcast.CacheLineBytes
		scratchSize := 0 // the reductions' same-size scratch
		if name == workload.OpReduce || name == workload.OpAllReduce {
			scratchSize = guard
		}
		addr, scratch := guard, 2*guard+size
		total := scratch + scratchSize + guard
		changeable := func(p int) bool {
			return p >= addr && p < addr+size || p >= scratch && p < scratch+scratchSize
		}
		opts := ocbcast.Options{Cores: n}
		if !strings.HasPrefix(alg, "Broadcast") {
			opts.Algorithm = alg
		}
		sys := ocbcast.New(opts)
		staged := make([][]byte, n)
		region := make([][]byte, n)
		rng := uint64(n)<<32 ^ uint64(lines)<<8 ^ uint64(opB)
		for id := range staged {
			b := make([]byte, total)
			for k := range b {
				rng = rng*6364136223846793005 + 1442695040888963407
				b[k] = byte(rng>>56) | 1
			}
			staged[id], region[id] = b, b[addr:addr+size]
			sys.WritePrivate(id, 0, b)
		}
		sys.Run(func(c *ocbcast.Core) {
			switch {
			case alg == "BroadcastBinomial":
				c.BroadcastBinomial(root, addr, lines)
			case alg == "BroadcastScatterAllgather":
				c.BroadcastScatterAllgather(root, addr, lines)
			case alg == "BroadcastScatterAllgatherOneSided":
				c.BroadcastScatterAllgatherOneSided(root, addr, lines)
			case name == workload.OpBcast:
				c.Broadcast(root, addr, lines)
			case name == workload.OpReduce:
				c.Reduce(root, addr, scratch, lines, ocbcast.SumInt64)
			case name == workload.OpAllReduce:
				c.AllReduce(addr, scratch, lines, ocbcast.SumInt64)
			case name == workload.OpScatter:
				c.Scatter(root, addr, lines)
			case name == workload.OpGather:
				c.Gather(root, addr, lines)
			case name == workload.OpAllGather:
				c.AllGather(addr, lines)
			}
		})
		what := fmt.Sprintf("%s %s n=%d root=%d lines=%d", name, alg, n, root, lines)
		for id := range staged {
			got := sys.ReadPrivate(id, 0, total)
			for p := range got {
				if got[p] != staged[id][p] && !changeable(p) {
					t.Fatalf("%s: core %d changed byte %d outside its region [%d, %d) and scratch [%d, %d)",
						what, id, p, addr, addr+size, scratch, scratch+scratchSize)
				}
			}
		}
		checkReference(t, sys, reference(op, n, root, lines, region), addr, what)
	})
}

// footprintAlgs lists what FuzzFootprint may run for op: every registered
// algorithm by name, and for bcast the three Broadcast* baselines.
func footprintAlgs(op string) []string {
	var out []string
	for _, a := range algsel.For(op) {
		out = append(out, a.Name)
	}
	if op == workload.OpBcast {
		out = append(out, "BroadcastBinomial", "BroadcastScatterAllgather", "BroadcastScatterAllgatherOneSided")
	}
	return out
}
