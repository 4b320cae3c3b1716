package occoll

import "repro/internal/core"

// Bcast delivers `lines` cache lines from the root's private memory at
// byte address addr to the same address on every core — OC-Bcast's §4
// chunk pipeline (core.Pipeline) run over an occoll lane's own flag
// block (dnNotify/dnDone), with the §5.4 leaf-direct optimization always
// on. It is the blocking twin of IBcast; the classic core.Broadcaster
// remains the paper-faithful standalone broadcast: the same pipeline
// over its own flag layout, with its monotonic sequence base.
func (x *Collectives) Bcast(root, addr, lines int) {
	x.IBcast(root, addr, lines).Wait()
}

// IBcast is the non-blocking Bcast: it issues the broadcast and returns a
// Request to Test or Wait on while the core computes.
func (x *Collectives) IBcast(root, addr, lines int) *Request {
	return x.issue(protoIBcast, root, addr, lines, nil)
}

var protoIBcast = &protocol{"IBcast", []stepFn{bcastDown}}

// bcastDown broadcasts r.lines lines; bcastDownAll is the second half of
// AllGather, broadcasting the P concatenated blocks.
func bcastDown(r *Request, ch int) bool    { return bcastChunk(r, r.lines, ch) }
func bcastDownAll(r *Request, ch int) bool { return bcastChunk(r, r.lines*r.tree.P, ch) }

// bcastChunk is one step — chunk ch — of the OC-Bcast §4 chunk pipeline
// (core.Pipeline, the one the standalone Broadcaster runs) over the
// lane's own buffers and flag lines (dnNotify/dnDone), with the §5.4
// leaf-direct optimization always on and every node draining, so the
// lane ends free. The pipeline delivers `lines` cache lines from the
// tree root's addr to the same address everywhere. Flags carry 1-based
// chunk sequence numbers.
func bcastChunk(r *Request, lines, ch int) (more bool) {
	l, x := r.lane, r.x
	pl := core.Pipeline{Tree: &r.tree, Data: l.dataBase, Notify: l.dnNotifyLine(),
		NB: x.numBuffers(), BufLines: x.cfg.BufLines,
		LeafDirect: true, Drain: true, Addr: r.addr, Lines: lines}
	return pl.EmitChunk(&l.prog, ch)
}
