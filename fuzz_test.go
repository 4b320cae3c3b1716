package ocbcast_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	ocbcast "repro"
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
// a reference computed on the host. Each call owns a disjoint address
// region, so the reference of one call does not depend on the others:
// any difference is one family's MPB lines corrupting another's.
//
// prog holds three bytes per call: the call kind, then the line count
// (1 + a 16-bit value mod 600); the kind byte's high bits also pick the
// root or the send/recv pair.
func FuzzMixedFamilies(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 63, 25, 0, 192, 1, 0, 63})               // Broadcast, 193-line Send/Recv from core 1 to 2, Broadcast
	f.Add(uint8(6), []byte{2, 0, 255, 2, 1, 255})                         // AllReduce at 256 and 512 lines
	f.Add(uint8(2), []byte{0, 1, 43, 3, 0, 63, 4, 0, 200})                // Send/Recv 300, AllReduceOC, Gather
	f.Add(uint8(0), []byte{0x24, 2, 87, 0x31, 0, 9, 0x13, 1, 0, 2, 0, 1}) // 600-line Gather, rooted calls off core 0
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
			if c.kind == 4 {
				size *= n
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
			size := cl.lines * ocbcast.CacheLineBytes
			for i := 0; i < n; i++ {
				want, at := in[j][i], j*region
				switch cl.kind {
				case 0:
					if i == cl.b {
						want = in[j][cl.a]
					}
				case 1:
					want = in[j][cl.a]
				case 2, 3:
					want = make([]byte, size)
					for _, src := range in[j] {
						for k := 0; k < size; k += 8 {
							binary.LittleEndian.PutUint64(want[k:], binary.LittleEndian.Uint64(want[k:])+binary.LittleEndian.Uint64(src[k:]))
						}
					}
				case 4:
					// The root holds every block; another core's own block
					// stays (the rest of its region is tree staging).
					want = make([]byte, 0, size*n)
					for src := 0; src < n; src++ {
						want = append(want, in[j][src][src*size:(src+1)*size]...)
					}
					if i != cl.a {
						want = want[i*size : (i+1)*size]
						at += i * size
					}
				}
				if got := sys.ReadPrivate(i, at, len(want)); !bytes.Equal(got, want) {
					t.Fatalf("n=%d calls %+v: call %d leaves core %d with wrong bytes", n, calls, j, i)
				}
			}
		}
	})
}
