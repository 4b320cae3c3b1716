package ocbcast_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	ocbcast "repro"
	"repro/internal/workload"
)

// span is expected bytes at a byte offset into a core's region.
type span struct {
	off  int
	want []byte
}

// reference is the host reference of every collective: what a call of op
// on an n-core chip guarantees in each core's region, given the regions
// as staged before the call (region[id], op.Region lines each). Inputs
// are read by the op table's input rule; reductions are SumInt64. What a
// core's list leaves out of its region is not guaranteed (the two-sided
// forms stage relayed data there on cores that are not the root).
func reference(op *workload.Op, n, root, lines int, region [][]byte) [][]span {
	size := lines * ocbcast.CacheLineBytes
	in := make([][]byte, n)
	for id := range in {
		off, count := op.InputAt(n, id, root, lines)
		in[id] = region[id][off*ocbcast.CacheLineBytes : (off+count)*ocbcast.CacheLineBytes]
	}
	out := make([][]span, n)
	everywhere := func(b []byte) {
		for id := range out {
			out[id] = []span{{0, b}}
		}
	}
	switch op.Name {
	case workload.OpBcast:
		everywhere(in[root])
	case workload.OpScatter:
		for id := range out {
			out[id] = []span{{id * size, in[root][id*size : (id+1)*size]}}
		}
	case workload.OpReduce, workload.OpAllReduce:
		sum := make([]byte, size)
		for _, b := range in {
			for k := 0; k < size; k += 8 {
				binary.LittleEndian.PutUint64(sum[k:], binary.LittleEndian.Uint64(sum[k:])+binary.LittleEndian.Uint64(b[k:]))
			}
		}
		if op.Rooted {
			out[root] = []span{{0, sum}}
		} else {
			everywhere(sum)
		}
	case workload.OpGather, workload.OpAllGather:
		all := bytes.Join(in, nil)
		if op.Rooted {
			for id := range out { // a core's own block stays
				out[id] = []span{{id * size, in[id]}}
			}
			out[root] = []span{{0, all}}
		} else {
			everywhere(all)
		}
	}
	return out
}

// checkReference fails t when a core's region at addr differs from the
// reference anywhere it guarantees bytes.
func checkReference(t *testing.T, sys *ocbcast.System, want [][]span, addr int, what string) {
	t.Helper()
	for id, spans := range want {
		for _, s := range spans {
			if got := sys.ReadPrivate(id, addr+s.off, len(s.want)); !bytes.Equal(got, s.want) {
				t.Fatalf("%s: core %d holds wrong bytes at region offset %d", what, id, s.off)
			}
		}
	}
}
