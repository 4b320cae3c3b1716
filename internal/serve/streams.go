package serve

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Stream adapters: the bridges from the repo's load sources — recorded
// application traces (internal/workload) and seeded synthetic
// generators — to serving request streams. Both are pure functions of
// their inputs, so a tenant mix is reproducible byte-for-byte and the
// serving runs built on it are deterministic.

// FromTrace turns a recorded application trace into a tenant stream:
// each record becomes one request, its inter-arrival gap the record's
// issue delta plus its compute gap (the application's own think time —
// in a serving mix the runtime, not the tenant, decides what overlaps).
func FromTrace(tenant string, weight int, t *workload.Trace) Stream {
	s := Stream{Tenant: tenant, Weight: weight, Reqs: make([]Req, len(t.Records))}
	for i, r := range t.Records {
		s.Reqs[i] = Req{Op: r.Op, Root: r.Root, Lines: r.Lines, GapUs: r.DeltaUs + r.ComputeUs}
	}
	return s
}

// ScaleGaps returns a copy of the stream with every inter-arrival gap
// divided by load — the offered-load knob of the fig-serving sweep
// (load 2 arrives twice as fast). It panics on a non-positive load
// (programming error).
func ScaleGaps(s Stream, load float64) Stream {
	if load <= 0 {
		panic(fmt.Sprintf("serve: ScaleGaps load %v must be positive", load))
	}
	out := Stream{Tenant: s.Tenant, Weight: s.Weight, Reqs: make([]Req, len(s.Reqs))}
	for i, r := range s.Reqs {
		r.GapUs /= load
		out.Reqs[i] = r
	}
	return out
}

// SyntheticParams shape a seeded synthetic tenant: Count requests, each
// drawing an operation and payload uniformly from Ops/Lines, a root
// uniform over the chip's N cores for rooted ops, and an exponential
// inter-arrival gap of mean MeanGapUs — an open-loop Poisson tenant.
type SyntheticParams struct {
	// Tenant and Weight identify the stream.
	Tenant string
	Weight int
	// Seed drives the generator; the same seed reproduces the stream
	// byte-for-byte.
	Seed int64
	// Count is the number of requests.
	Count int
	// N is the chip's core count (rooted ops draw roots below it).
	N int
	// Ops and Lines are the choice sets (uniform).
	Ops   []string
	Lines []int
	// MeanGapUs is the mean inter-arrival gap in microseconds.
	MeanGapUs float64
}

// Synthetic generates the stream. It panics on empty choice sets or a
// non-positive count (programming errors in experiment setup).
func Synthetic(p SyntheticParams) Stream {
	if p.Count <= 0 || len(p.Ops) == 0 || len(p.Lines) == 0 || p.N <= 0 {
		panic(fmt.Sprintf("serve: Synthetic needs positive Count/N and non-empty Ops/Lines (got %+v)", p))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := Stream{Tenant: p.Tenant, Weight: p.Weight, Reqs: make([]Req, p.Count)}
	for i := range s.Reqs {
		op := p.Ops[rng.Intn(len(p.Ops))]
		r := Req{Op: op, Lines: p.Lines[rng.Intn(len(p.Lines))]}
		if o := workload.OpOf(op); o != nil && o.Rooted {
			r.Root = rng.Intn(p.N)
		}
		gap := p.MeanGapUs * rng.ExpFloat64()
		if gap > workload.MaxGapUs {
			gap = workload.MaxGapUs
		}
		r.GapUs = gap
		s.Reqs[i] = r
	}
	return s
}
