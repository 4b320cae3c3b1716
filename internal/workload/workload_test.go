package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *Trace {
	t.Helper()
	tr, err := ParseBytes([]byte(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return tr
}

func TestParseFormatRoundTrip(t *testing.T) {
	text := "octrace v1\n" +
		"# a comment\n" +
		"\n" +
		"allreduce 0 64 12.5 30\n" +
		"bcast 3 96 0 0\n" +
		"scatter 1 8 0.125 7.75\n" +
		"gather 1 8 1e-3 0\n" +
		"allgather 0 4 0 0\n" +
		"reduce 2 1 3.5 0\n"
	tr := mustParse(t, text)
	if len(tr.Records) != 6 {
		t.Fatalf("parsed %d records, want 6", len(tr.Records))
	}
	if tr.Records[0] != (Record{Op: OpAllReduce, Lines: 64, DeltaUs: 12.5, ComputeUs: 30}) {
		t.Fatalf("record 0 = %+v", tr.Records[0])
	}
	out := tr.Format()
	tr2, err := ParseBytes(out)
	if err != nil {
		t.Fatalf("reparse canonical text: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, tr2.Records) {
		t.Fatalf("round trip changed records:\n%+v\n%+v", tr.Records, tr2.Records)
	}
	// Canonical text is a fixed point.
	if string(out) != string(tr2.Format()) {
		t.Fatalf("canonical text not stable:\n%q\n%q", out, tr2.Format())
	}
}

func TestParseExactFloats(t *testing.T) {
	// Shortest-exact formatting must reproduce awkward float64s bit for bit.
	in := &Trace{Records: []Record{
		{Op: OpBcast, Lines: 1, DeltaUs: 0.1, ComputeUs: 1.0 / 3.0},
		{Op: OpReduce, Lines: 2, DeltaUs: math.Nextafter(5, 6), ComputeUs: 1e-300},
	}}
	out, err := ParseBytes(in.Format())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(in.Records, out.Records) {
		t.Fatalf("floats changed: %v vs %v", in.Records, out.Records)
	}
}

func TestParseErrorsArePositional(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"missing header", "bcast 0 1 0 0\n", `line 1: missing "octrace v1"`},
		{"empty", "", "missing"},
		{"comments only", "# hi\n\n# bye\n", "missing"},
		{"no records", "octrace v1\n# empty\n", "line 2: trace has no records"},
		{"unknown op", "octrace v1\nfrobnicate 0 1 0 0\n", `line 2: unknown op "frobnicate"`},
		{"field count", "octrace v1\nbcast 0 1 0\n", "line 2: want 5 fields"},
		{"extra field", "octrace v1\nbcast 0 1 0 0 9\n", "line 2: want 5 fields"},
		{"bad root", "octrace v1\nbcast x 1 0 0\n", `line 2: root: "x"`},
		{"negative root", "octrace v1\nbcast -1 1 0 0\n", "line 2: root -1 out of range"},
		{"zero lines", "octrace v1\nbcast 0 0 0 0\n", "line 2: lines 0 out of range"},
		{"huge lines", "octrace v1\nbcast 0 9999999 0 0\n", "line 2: lines 9999999 out of range"},
		{"bad delta", "octrace v1\nbcast 0 1 abc 0\n", `line 2: delta: "abc"`},
		{"negative delta", "octrace v1\nbcast 0 1 -2 0\n", "line 2: delta -2 out of range"},
		{"inf compute", "octrace v1\nbcast 0 1 0 1e999\n", "line 2: compute"},
		{"nan compute", "octrace v1\nbcast 0 1 0 NaN\n", "line 2: compute NaN is not finite"},
		{"later line", "octrace v1\nbcast 0 1 0 0\n# ok\nreduce 0 0 0 0\n", "line 4: lines 0 out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseBytes([]byte(c.text))
			if err == nil {
				t.Fatalf("Parse accepted %q", c.text)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateFor(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Op: OpBcast, Root: 7, Lines: 1},
		{Op: OpAllReduce, Root: 100, Lines: 1}, // unrooted: root ignored
	}}
	if err := tr.ValidateFor(8); err != nil {
		t.Fatalf("ValidateFor(8): %v", err)
	}
	if err := tr.ValidateFor(4); err == nil || !strings.Contains(err.Error(), "record 0: root 7") {
		t.Fatalf("ValidateFor(4) = %v, want record-0 root error", err)
	}
}

func TestLayout(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Op: OpAllReduce, Lines: 100},       // region 100 lines
		{Op: OpScatter, Root: 0, Lines: 10}, // region 8*10 lines on 8 cores
	}}
	l := LayoutFor(tr, 8)
	if want := 100 * 32; l.SlotBytes != want {
		t.Fatalf("SlotBytes = %d, want %d", l.SlotBytes, want)
	}
	if l.Addr(0) != 0 || l.Addr(1) != l.SlotBytes || l.Addr(l.Slots) != 0 {
		t.Fatalf("slot rotation wrong: %d %d %d", l.Addr(0), l.Addr(1), l.Addr(l.Slots))
	}
	if l.ScratchAddr != l.Slots*l.SlotBytes {
		t.Fatalf("ScratchAddr = %d", l.ScratchAddr)
	}
	if l.TotalBytes() != (l.Slots+1)*l.SlotBytes {
		t.Fatalf("TotalBytes = %d", l.TotalBytes())
	}
	// Block ops dominate when n*lines exceeds the biggest flat record.
	l2 := LayoutFor(tr, 16)
	if want := 16 * 10 * 32; l2.SlotBytes != want {
		t.Fatalf("block-dominated SlotBytes = %d, want %d", l2.SlotBytes, want)
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Op: OpBcast, Lines: 4, DeltaUs: 10},
		{Op: OpBcast, Lines: 9, ComputeUs: 5},
		{Op: OpGather, Lines: 2, DeltaUs: 1, ComputeUs: 2},
	}}
	if got := tr.MaxLines(); got != 9 {
		t.Fatalf("MaxLines = %d", got)
	}
	if got := tr.DurationUs(); got != 18 {
		t.Fatalf("DurationUs = %v", got)
	}
	counts := tr.OpCounts()
	if counts[OpBcast] != 2 || counts[OpGather] != 1 {
		t.Fatalf("OpCounts = %v", counts)
	}
}

// fakeRunner records the call sequence Replay makes, advancing a fake
// clock, so the mapping contract is testable without a simulator.
type fakeRunner struct {
	clock  float64
	log    []string
	sched  []int   // per issued op: Test polls until complete; 0 = never (Wait required)
	issued int     // ops issued so far
	cur    int     // schedule entry of the live pending op
	polls  int     // Test polls observed on the live pending op
	waitUs float64 // clock advance charged by Wait on an unfinished op
}

type fakePending struct{ r *fakeRunner }

func (f *fakeRunner) Compute(us float64) {
	f.clock += us
	f.log = append(f.log, "compute")
}
func (f *fakeRunner) Barrier()       { f.log = append(f.log, "barrier") }
func (f *fakeRunner) NowUs() float64 { return f.clock }
func (f *fakeRunner) Run(r Record, addr, scratch int) {
	f.clock += 100
	f.log = append(f.log, "run:"+r.Op)
}
func (f *fakeRunner) Issue(r Record, addr, scratch int) Pending {
	f.cur = 0
	if f.issued < len(f.sched) {
		f.cur = f.sched[f.issued]
	}
	f.issued++
	f.polls = 0
	f.log = append(f.log, "issue:"+r.Op)
	return fakePending{f}
}
func (p fakePending) Test() bool {
	p.r.polls++
	p.r.log = append(p.r.log, "test")
	return p.r.cur > 0 && p.r.polls >= p.r.cur
}
func (p fakePending) Wait() {
	p.r.clock += p.r.waitUs
	p.r.log = append(p.r.log, "wait")
}

func TestReplayMapping(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Op: OpBcast, Root: 0, Lines: 4, DeltaUs: 50},         // compute + blocking
		{Op: OpAllReduce, Lines: 4, ComputeUs: 40},            // overlap, completes at 2nd poll
		{Op: OpGather, Root: 1, Lines: 2},                     // blocking, no delta
		{Op: OpAllGather, Lines: 2, DeltaUs: 1, ComputeUs: 8}, // overlap, never completes -> Wait
	}}
	l := LayoutFor(tr, 4)
	done := make([]float64, len(tr.Records))
	f := &fakeRunner{sched: []int{2, 0}, waitUs: 30}
	res := Replay(f, tr, l, ReplayOptions{Polls: 4, RecordDoneUs: done})

	want := []string{
		"barrier",
		"compute", "run:bcast",
		"issue:allreduce", "compute", "test", "compute", "test", "compute", "compute",
		"run:gather",
		"compute", "issue:allgather", "compute", "test", "compute", "test", "compute", "test", "compute", "test", "wait",
	}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("call sequence:\n got %v\nwant %v", f.log, want)
	}
	// Clock: 50 + 100 (bcast) + 40 (4 slices) + 100 (gather) + 1 + 8 + 30 (wait).
	if res.FinishUs != 329 || res.StartUs != 0 {
		t.Fatalf("Result = %+v", res)
	}
	if done[0] != 150 || done[3] != res.FinishUs {
		t.Fatalf("RecordDoneUs = %v", done)
	}
	if done[1] != 190 || done[2] != 290 {
		t.Fatalf("mid-record timestamps = %v", done)
	}
}

func TestBounds(t *testing.T) {
	first, last := Bounds([]Result{{StartUs: 5, FinishUs: 20}, {StartUs: 3, FinishUs: 9}, {StartUs: 4, FinishUs: 25}})
	if first != 3 || last != 25 {
		t.Fatalf("Bounds = (%v, %v), want (3, 25)", first, last)
	}
}

func TestReplayDefaultPolls(t *testing.T) {
	tr := &Trace{Records: []Record{{Op: OpReduce, Root: 0, Lines: 1, ComputeUs: 12}}}
	f := &fakeRunner{}
	Replay(f, tr, LayoutFor(tr, 2), ReplayOptions{})
	if f.polls != DefaultPolls {
		t.Fatalf("polled %d times, want DefaultPolls=%d", f.polls, DefaultPolls)
	}
}

func TestReplayShortDoneBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short RecordDoneUs")
		}
	}()
	tr := &Trace{Records: []Record{{Op: OpBcast, Lines: 1}, {Op: OpBcast, Lines: 1}}}
	Replay(&fakeRunner{}, tr, LayoutFor(tr, 2), ReplayOptions{RecordDoneUs: make([]float64, 1)})
}

func TestKernelsValidAndDeterministic(t *testing.T) {
	for _, n := range []int{8, 48, 384} {
		ks := Kernels(n)
		if len(ks) != 3 {
			t.Fatalf("Kernels(%d) returned %d kernels", n, len(ks))
		}
		again := Kernels(n)
		for i, k := range ks {
			if err := k.Trace.ValidateFor(n); err != nil {
				t.Errorf("kernel %s at n=%d invalid: %v", k.Name, n, err)
			}
			if string(k.Trace.Format()) != string(again[i].Trace.Format()) {
				t.Errorf("kernel %s at n=%d not deterministic", k.Name, n)
			}
			// Round-trip each kernel through the text format.
			back, err := ParseBytes(k.Trace.Format())
			if err != nil {
				t.Errorf("kernel %s does not reparse: %v", k.Name, err)
			} else if !reflect.DeepEqual(back.Records, k.Trace.Records) {
				t.Errorf("kernel %s changed across serialize/parse", k.Name)
			}
		}
	}
}

func TestKernelShapes(t *testing.T) {
	// SGD is allreduce-dominated; its last per-step allreduce blocks.
	sgd := SGDTrace(DefaultSGD(48))
	counts := sgd.OpCounts()
	if counts[OpAllReduce] != len(sgd.Records) {
		t.Fatalf("SGD has non-allreduce records: %v", counts)
	}
	layers := len(DefaultSGD(48).LayerLines)
	for i, r := range sgd.Records {
		last := i%layers == layers-1
		if last && r.ComputeUs != 0 {
			t.Fatalf("SGD record %d: blocking tail has compute gap %v", i, r.ComputeUs)
		}
		if !last && r.ComputeUs == 0 {
			t.Fatalf("SGD record %d: overlapped layer lost its gap", i)
		}
	}
	// Stencil rotates its halo roots and broadcasts periodically.
	st := StencilTrace(DefaultStencil(48))
	stc := st.OpCounts()
	if stc[OpGather] == 0 || stc[OpScatter] == 0 || stc[OpBcast] == 0 {
		t.Fatalf("stencil op mix missing a family: %v", stc)
	}
	// Shuffle composes scatter+gather rounds with allgather/allreduce.
	sh := ShuffleTrace(DefaultShuffle(48))
	shc := sh.OpCounts()
	if shc[OpScatter] != shc[OpGather] || shc[OpAllGather] == 0 || shc[OpAllReduce] == 0 {
		t.Fatalf("shuffle op mix wrong: %v", shc)
	}
}
