package ocbcast

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/workload"
)

// Trace replay: the whole-application layer of the public API. A Trace is
// a recorded schedule of collective calls — each record an operation, a
// root, a payload size, the issue-time delta since the previous call and
// the compute gap available to overlap — and System.Replay runs a whole
// trace on the simulated chip, mapping blocking records onto the blocking
// collectives and overlapped records onto the non-blocking I*/progress
// engine path. The octrace text grammar, the synthetic application
// kernels (SGD, stencil, shuffle) and the replay semantics live in
// internal/workload; the fig-apps experiment replays the kernels under
// paper-default vs "auto" algorithm selection to validate auto-selection
// on whole-application time.

// TraceRecord is one collective call of a recorded trace; Trace is the
// recorded schedule. See ParseTrace for the text format.
type (
	TraceRecord = workload.Record
	Trace       = workload.Trace
)

// ParseTrace parses octrace text, one collective call per line:
//
//	octrace v1
//	# op root lines delta_us compute_us
//	allreduce 0 1024 200 0
//	bcast 3 96 12.5 40
//
// Operations are bcast, reduce, allreduce, scatter, gather, allgather;
// root is ignored (write 0) for allreduce and allgather; lines is the
// payload in 32-byte cache lines; delta is the issue-time gap since the
// previous record (µs); a non-zero compute gap (µs) replays the record on
// the non-blocking path, overlapping that much local work. Malformed
// input is rejected with an error naming the offending line.
func ParseTrace(data []byte) (*Trace, error) {
	return workload.ParseBytes(data)
}

// ReplayStats summarize one whole-trace replay.
type ReplayStats struct {
	// Records is the number of collective calls replayed.
	Records int
	// FirstStartUs and LastFinishUs bound the replay in virtual time:
	// the earliest core's clock after the opening barrier and the latest
	// core's clock after the final record.
	FirstStartUs, LastFinishUs float64
	// MakespanUs is the whole-application time, LastFinishUs −
	// FirstStartUs.
	MakespanUs float64
	// FinishUs is each core's completion clock, indexed by core id.
	FinishUs []float64
}

// Replay runs a recorded trace on the chip: every core issues the
// trace's collectives in order, charging each record's issue-time delta
// as local compute first, running gap-free records as blocking calls and
// records with a compute gap through the non-blocking progress engine
// (issue, compute in slices with Test polls, Wait). Payloads live at
// deterministic addresses — records rotate through four regions sized by
// the trace's largest working set (see internal/workload.Layout) — so
// stage input with WritePrivate and read results back with ReadPrivate.
// Algorithm resolution follows Options.Algorithm like every collective
// method, so the same trace replays under the paper-default stacks,
// "auto", or a named override.
//
// Replay consumes the System's single Run; build a fresh System per
// replay. It returns an error for a trace that does not fit the chip
// (unknown op, root outside the core count, a layout larger than
// PrivateMemoryBytes), for a trace with overlapped records on a System
// whose Options.Channels leave the one-sided family no MPB room, and for
// a System that already ran.
func (s *System) Replay(t *Trace) (ReplayStats, error) {
	if t == nil {
		return ReplayStats{}, fmt.Errorf("ocbcast: Replay of a nil trace")
	}
	if err := t.ValidateFor(s.N()); err != nil {
		return ReplayStats{}, err
	}
	overlapped := false
	for _, r := range t.Records {
		overlapped = overlapped || r.ComputeUs > 0
	}
	if err := s.preflight(overlapped); err != nil {
		return ReplayStats{}, err
	}
	n := s.N()
	l := workload.LayoutFor(t, n)
	if err := fitsPrivate("the trace's layout", l.TotalBytes()); err != nil {
		return ReplayStats{}, err
	}
	res := make([]workload.Result, n)
	s.Run(func(c *Core) {
		res[c.ID()] = workload.Replay(algsel.Replayer{E: c.env}, t, l, workload.ReplayOptions{})
	})
	st := ReplayStats{Records: len(t.Records), FinishUs: make([]float64, n)}
	for id, r := range res {
		st.FinishUs[id] = r.FinishUs
	}
	st.FirstStartUs, st.LastFinishUs = workload.Bounds(res)
	st.MakespanUs = st.LastFinishUs - st.FirstStartUs
	return st, nil
}
