package main

import (
	"fmt"

	"repro/internal/workload"
)

// stubPending completes on its second poll.
type stubPending struct{ polls int }

func (s *stubPending) Test() bool { s.polls++; return s.polls > 1 }
func (s *stubPending) Wait()      {}

// stubRunner is a workload.Runner with no simulator underneath: a clock
// and nothing else, so Replay's own per-record work is what is timed.
type stubRunner struct {
	nowUs   float64
	records int
}

func (r *stubRunner) Compute(us float64) { r.nowUs += us }
func (r *stubRunner) Barrier()           {}
func (r *stubRunner) NowUs() float64     { return r.nowUs }
func (r *stubRunner) Run(workload.Record, int, int) {
	r.records++
	r.nowUs++
}
func (r *stubRunner) Issue(workload.Record, int, int) workload.Pending {
	r.records++
	return &stubPending{}
}

// probeWorkload formats, parses and dispatches a trace with nothing below
// the replayer: the SGD kernel's schedule repeated to a thousand records.
func probeWorkload(p *probeCtx) {
	sgd := workload.SGDTrace(workload.DefaultSGD(p.n))
	t := &workload.Trace{}
	for len(t.Records) < replayRecords {
		t.Records = append(t.Records, sgd.Records...)
	}
	n := int64(len(t.Records))

	var text []byte
	p.v["workload.format_ns_per_record"] = p.batches("probe.workload.format", func(int) int64 {
		text = t.Format()
		return n
	})
	p.v["workload.parse_ns_per_record"] = p.batches("probe.workload.parse", func(int) int64 {
		back, err := workload.ParseBytes(text)
		if err != nil || len(back.Records) != len(t.Records) {
			p.fail(fmt.Errorf("workload: formatted trace parses to %v records, err %v", back, err))
		}
		return n
	})
	layout := workload.LayoutFor(t, p.n)
	p.v["workload.ns_per_record_dispatch"] = p.batches("probe.workload.dispatch", func(int) int64 {
		r := &stubRunner{}
		workload.Replay(r, t, layout, workload.ReplayOptions{})
		if int64(r.records) != n {
			p.fail(fmt.Errorf("workload: Replay dispatched %d of %d records", r.records, n))
		}
		return n
	})
}
