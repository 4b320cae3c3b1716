package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	ocbcast "repro"
	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/workload"
)

// A workload is one kind of op a library user runs: build a System, stage
// inputs, Run (or Replay) once. Everything it calls is the root package's
// public API; only the closed-form reference comes from internal/model.
type workloadDef struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records for the workload.
	Why   string
	Cores int
	Opts  ocbcast.Options
	// generate builds the op's inputs for the chip Opts select; use
	// Generate.
	generate func(seed int64, topo scc.Topology, cores int) opInput
}

// opInput is the generated input of one workload plus the code that runs
// and checks one op on it.
type opInput interface {
	// Bytes serialises the generated inputs, for the seed tests.
	Bytes() []byte
	// RefModelUs is the closed-form latency of the reference collective.
	RefModelUs() float64
	// Run executes one op (New, stage, Run) under opts and times it. tr
	// may be nil (timed runs record no spans).
	Run(opts ocbcast.Options, tr *tracer, op int) opResult
	// Verify checks every output of the op; it runs outside the timed
	// interval.
	Verify(r *opResult) error
}

// opResult is what one op produced.
type opResult struct {
	Sys *ocbcast.System
	// SimUs is the virtual clock at which the last core finished.
	SimUs float64
	// RefUs is the simulated latency of the reference collective,
	// measured the way the harness measures it: from the first core's
	// call (after a barrier) to the last core's return.
	RefUs float64
	// Host is the wall-clock of New + stage + Run.
	Host time.Duration
	// Err is a recovered panic (deadlock, misuse) or a Replay error.
	Err error
}

const lineBytes = ocbcast.CacheLineBytes

// paperModel is the closed-form model with the paper's Table 1 parameters.
var paperModel = ocbcast.Model(nil)

var workloads = []workloadDef{
	{
		Name:     "bcast_oc_48",
		Why:      "paper's OC-Bcast on the paper's 48-core chip: internal/core does the protocol work; bypasses occoll, rcce data path, workload, serve",
		Cores:    48,
		generate: newBcastInput,
	},
	{
		Name:     "bcast_oc_384",
		Why:      "same op on a 16x12 mesh (384 cores): run queue, watcher scans, extent sweeps of sim/mem and chip construction in rma dominate",
		Cores:    384,
		Opts:     ocbcast.Options{MeshWidth: 16, MeshHeight: 12},
		generate: newBcastInput,
	},
	{
		Name:     "allreduce_oc_48",
		Why:      "blocking and polled one-sided AllReduce: internal/occoll (request coroutines, lanes, progress engine) does the work, the broadcaster none",
		Cores:    48,
		generate: newAllreduceInput,
	},
	{
		Name:     "replay_mix_8",
		Why:      "1000-record mixed trace on 8 cores: set-up amortised, small fan-out, four ops in six are two-sided rcce+collective handshakes",
		Cores:    8,
		Opts:     ocbcast.Options{Cores: 8},
		generate: newReplayInput,
	},
}

// Generate builds the op's inputs from the seed: the same seed gives
// byte-identical inputs, another seed different ones.
func (w workloadDef) Generate(seed int64) opInput {
	return w.generate(seed, w.Topology(), w.Cores)
}

// Topology is the mesh the workload's Options select.
func (w workloadDef) Topology() scc.Topology {
	if w.Opts.MeshWidth != 0 {
		return scc.Mesh(w.Opts.MeshWidth, w.Opts.MeshHeight)
	}
	return scc.SCC()
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// protect runs f and turns a panic out of System.Run (deadlock diagnosis,
// API misuse) into an error, so one bad op is counted, not fatal.
func protect(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

func modelErrPct(simUs, modelUs float64) float64 {
	return 100 * math.Abs(simUs-modelUs) / modelUs
}

// ---- bcast_oc_48 / bcast_oc_384 ----

const (
	bcastCount  = 8
	bcastRefIdx = 2 // the third broadcast: 96 CL from root 0, the golden point
	ocK         = 7 // the paper's fan-out, Options.K's default
)

// bcastSizes cycles latency-bound, sub-chunk, exactly one Moc chunk and a
// four-chunk double-buffered pipeline.
var bcastSizes = [4]int{1, 32, 96, 384}

type bcastInput struct {
	n      int
	roots  [bcastCount]int
	addrs  [bcastCount]int
	lines  [bcastCount]int
	skewUs []float64 // seeded per-core compute before the first barrier
	image  []byte    // every payload at its address: what each core must hold afterwards

	modelUs float64
	// Scratch reused across ops (one op at a time).
	finish, refEnd []float64
	refStart       float64
}

// bcastRoots places the eight roots at the chip's corners, centre and in
// between. They are not drawn from the seed: OC-Bcast's allocation count
// and virtual time move with the root's position (about 1.5 % and 2 %
// between draws at 384 cores), which between seeds would be noise wider
// than the bounds. The seed draws the payloads and the arrival skew.
func bcastRoots(n int) [bcastCount]int {
	return [bcastCount]int{n / 2, n - 1, 0, n/4 + 1, 3 * n / 4, 1, n / 8, 5*n/8 + 1}
}

// skewUs bounds the seeded per-core compute: cores do not arrive at a
// collective in lock step, and the skew makes the op's virtual time a
// function of the seed.
const skewUs = 4.0

func newBcastInput(seed int64, topo scc.Topology, n int) opInput {
	rng := rand.New(rand.NewSource(seed))
	in := &bcastInput{n: n}
	in.roots = bcastRoots(in.n)
	addr := 0
	for i := 0; i < bcastCount; i++ {
		in.lines[i] = bcastSizes[i%len(bcastSizes)]
		in.addrs[i] = addr
		addr += in.lines[i] * lineBytes
	}
	in.image = make([]byte, addr)
	rng.Read(in.image)
	in.skewUs = make([]float64, in.n)
	for c := range in.skewUs {
		in.skewUs[c] = skewUs * rng.Float64()
	}
	in.modelUs = paperModel.OCBcastLatency(model.BcastParamsFor(topo, in.n, ocK), in.lines[bcastRefIdx], ocK).Microseconds()
	in.finish = make([]float64, in.n)
	in.refEnd = make([]float64, in.n)
	return in
}

func (in *bcastInput) Bytes() []byte {
	var b bytes.Buffer
	for i := range in.roots {
		fmt.Fprintf(&b, "%d %d %d\n", in.roots[i], in.addrs[i], in.lines[i])
	}
	fmt.Fprintln(&b, in.skewUs)
	b.Write(in.image)
	return b.Bytes()
}

func (in *bcastInput) RefModelUs() float64 { return in.modelUs }

func (in *bcastInput) payload(i int) []byte {
	return in.image[in.addrs[i] : in.addrs[i]+in.lines[i]*lineBytes]
}

func (in *bcastInput) Run(opts ocbcast.Options, tr *tracer, op int) (res opResult) {
	t0 := time.Now()
	res.Err = protect(func() {
		s := tr.begin("root.new", op)
		sys := ocbcast.New(opts)
		res.Sys = sys
		tr.end(s, 1)

		s = tr.begin("root.stage", op)
		for i := range in.roots {
			sys.WritePrivate(in.roots[i], in.addrs[i], in.payload(i))
		}
		tr.end(s, bcastCount)

		s = tr.begin("root.run", op)
		sys.Run(func(c *ocbcast.Core) {
			c.Compute(in.skewUs[c.ID()])
			for i := range in.roots {
				c.Barrier()
				if i == bcastRefIdx && c.ID() == in.roots[i] {
					in.refStart = c.NowMicros()
				}
				c.Broadcast(in.roots[i], in.addrs[i], in.lines[i])
				if i == bcastRefIdx {
					in.refEnd[c.ID()] = c.NowMicros()
				}
			}
			in.finish[c.ID()] = c.NowMicros()
		})
		tr.end(s, bcastCount)
	})
	res.Host = time.Since(t0)
	if res.Err == nil {
		res.SimUs = slices.Max(in.finish)
		res.RefUs = slices.Max(in.refEnd) - in.refStart
	}
	return res
}

func (in *bcastInput) Verify(r *opResult) error {
	if r.Err != nil {
		return r.Err
	}
	return verifyImage(r.Sys, in.n, in.image, "broadcast payloads")
}

// verifyImage requires every core's private memory from address 0 to hold
// exactly want.
func verifyImage(sys *ocbcast.System, n int, want []byte, what string) error {
	for core := 0; core < n; core++ {
		got := sys.ReadPrivate(core, 0, len(want))
		if !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s: core %d byte %d is %#02x, want %#02x", what, core, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// ---- allreduce_oc_48 ----

// The three reductions: a blocking 8 KiB one (the reference collective),
// a small blocking one, and a non-blocking one polled between compute
// slices.
const (
	arRefLines   = 256
	arSmallLines = 16
	arPollLines  = 64
	arSmallAddr  = arRefLines * lineBytes
	arPollAddr   = arSmallAddr + arSmallLines*lineBytes
	arBytes      = arPollAddr + arPollLines*lineBytes
	arSliceUs    = 2
)

type allreduceInput struct {
	n       int
	vec     [][]byte  // per core: the three int64 vectors at their addresses
	skewUs  []float64 // seeded per-core compute before the second reduction
	want    []byte    // element-wise sums: what every core must hold afterwards
	modelUs float64
	// Scratch reused across ops.
	finish, refStart, refEnd []float64
}

func newAllreduceInput(seed int64, topo scc.Topology, n int) opInput {
	rng := rand.New(rand.NewSource(seed))
	in := &allreduceInput{n: n, vec: make([][]byte, n), skewUs: make([]float64, n), want: make([]byte, arBytes)}
	sums := make([]int64, arBytes/8)
	for c := 0; c < n; c++ {
		in.vec[c] = make([]byte, arBytes)
		for j := range sums {
			v := rng.Int63n(1 << 40)
			sums[j] += v
			binary.LittleEndian.PutUint64(in.vec[c][8*j:], uint64(v))
		}
		in.skewUs[c] = skewUs * rng.Float64()
	}
	for j, s := range sums {
		binary.LittleEndian.PutUint64(in.want[8*j:], uint64(s))
	}
	in.modelUs = paperModel.OCAllReduceLatency(model.ReduceParamsFor(topo, n, ocK), arRefLines, ocK).Microseconds()
	in.finish = make([]float64, n)
	in.refStart = make([]float64, n)
	in.refEnd = make([]float64, n)
	return in
}

func (in *allreduceInput) Bytes() []byte {
	var b bytes.Buffer
	for c := range in.vec {
		b.Write(in.vec[c])
		fmt.Fprintf(&b, "%v\n", in.skewUs[c])
	}
	return b.Bytes()
}

func (in *allreduceInput) RefModelUs() float64 { return in.modelUs }

func (in *allreduceInput) Run(opts ocbcast.Options, tr *tracer, op int) (res opResult) {
	t0 := time.Now()
	res.Err = protect(func() {
		s := tr.begin("root.new", op)
		sys := ocbcast.New(opts)
		res.Sys = sys
		tr.end(s, 1)

		// Staging happens on the cores, inside Run (WriteOwnPrivate).
		tr.end(tr.begin("root.stage", op), 0)

		s = tr.begin("root.run", op)
		sys.Run(func(c *ocbcast.Core) {
			id := c.ID()
			c.WriteOwnPrivate(0, in.vec[id])
			c.Barrier()
			in.refStart[id] = c.NowMicros()
			c.AllReduceOC(0, arRefLines, ocbcast.SumInt64)
			in.refEnd[id] = c.NowMicros()
			c.Compute(in.skewUs[id])
			c.AllReduceOC(arSmallAddr, arSmallLines, ocbcast.SumInt64)
			r := c.IAllReduceOC(arPollAddr, arPollLines, ocbcast.SumInt64)
			for !r.Test() {
				c.Compute(arSliceUs)
			}
			in.finish[id] = c.NowMicros()
		})
		tr.end(s, 3)
	})
	res.Host = time.Since(t0)
	if res.Err == nil {
		res.SimUs = slices.Max(in.finish)
		res.RefUs = slices.Max(in.refEnd) - slices.Min(in.refStart)
	}
	return res
}

func (in *allreduceInput) Verify(r *opResult) error {
	if r.Err != nil {
		return r.Err
	}
	return verifyImage(r.Sys, in.n, in.want, "int64 sums")
}

// ---- replay_mix_8 ----

const (
	replayRecords   = 1000
	replayComputeUs = 3.5
	// replayRefLines is the reference collective of the 8-core chip: one
	// OC-Bcast chunk from root 0, simulated once during set-up. A schedule
	// of a thousand collectives has no closed form of its own.
	replayRefLines = 96
)

var replayLines = [5]int{1, 2, 4, 8, 32}

type replayInput struct {
	n       int
	text    []byte // octrace v1 text, as generated
	trace   *ocbcast.Trace
	modelUs float64
	refUs   float64
	stats   ocbcast.ReplayStats
}

// newReplayInput draws the trace as a seeded shuffle of a fixed multiset:
// every (op, lines) pair appears equally often and exactly one record in
// five carries a compute gap, so the op mix is uniform for every seed and
// the work of a run does not depend on the draw; order, roots and which
// records overlap do.
func newReplayInput(seed int64, topo scc.Topology, n int) opInput {
	rng := rand.New(rand.NewSource(seed))
	ops := workload.Ops()
	recs := make([]ocbcast.TraceRecord, replayRecords)
	for i := range recs {
		combo := i % (len(ops) * len(replayLines))
		recs[i] = ocbcast.TraceRecord{Op: ops[combo%len(ops)], Lines: replayLines[combo/len(ops)]}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for _, i := range rng.Perm(len(recs))[:replayRecords/5] {
		recs[i].ComputeUs = replayComputeUs
	}
	for i := range recs {
		switch recs[i].Op {
		case workload.OpBcast, workload.OpReduce, workload.OpScatter, workload.OpGather:
			recs[i].Root = rng.Intn(n)
		}
	}
	// The program sees only generated input: format to text, parse back.
	in := &replayInput{n: n, text: (&ocbcast.Trace{Records: recs}).Format()}
	tr, err := ocbcast.ParseTrace(in.text)
	if err != nil {
		panic(fmt.Sprintf("bench: generated trace does not parse: %v", err))
	}
	in.trace = tr

	in.modelUs = paperModel.OCBcastLatency(model.BcastParamsFor(topo, n, ocK), replayRefLines, ocK).Microseconds()
	sys := ocbcast.New(ocbcast.Options{Cores: n})
	sys.WritePrivate(0, 0, make([]byte, replayRefLines*lineBytes))
	var start float64
	end := make([]float64, n)
	sys.Run(func(c *ocbcast.Core) {
		c.Barrier()
		if c.ID() == 0 {
			start = c.NowMicros()
		}
		c.Broadcast(0, 0, replayRefLines)
		end[c.ID()] = c.NowMicros()
	})
	in.refUs = slices.Max(end) - start
	return in
}

func (in *replayInput) Bytes() []byte       { return in.text }
func (in *replayInput) RefModelUs() float64 { return in.modelUs }

func (in *replayInput) Run(opts ocbcast.Options, tr *tracer, op int) (res opResult) {
	t0 := time.Now()
	res.Err = protect(func() {
		s := tr.begin("root.new", op)
		sys := ocbcast.New(opts)
		res.Sys = sys
		tr.end(s, 1)

		// Replay stages nothing: reductions run on zeroed memory.
		tr.end(tr.begin("root.stage", op), 0)

		s = tr.begin("root.run", op)
		st, err := sys.Replay(in.trace)
		tr.end(s, replayRecords)
		if err != nil {
			panic(err)
		}
		in.stats = st
	})
	res.Host = time.Since(t0)
	if res.Err == nil {
		res.SimUs = in.stats.MakespanUs
		res.RefUs = in.refUs
	}
	return res
}

func (in *replayInput) Verify(r *opResult) error {
	if r.Err != nil {
		return r.Err
	}
	st := in.stats
	if st.Records != replayRecords {
		return fmt.Errorf("replay: %d records replayed, want %d", st.Records, replayRecords)
	}
	if len(st.FinishUs) != in.n {
		return fmt.Errorf("replay: %d per-core finish clocks, want %d", len(st.FinishUs), in.n)
	}
	if got := slices.Max(st.FinishUs) - st.FirstStartUs; got != st.MakespanUs || st.MakespanUs <= 0 {
		return fmt.Errorf("replay: makespan %v µs does not match per-core clocks (%v µs)", st.MakespanUs, got)
	}
	return nil
}
