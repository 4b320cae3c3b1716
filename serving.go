package ocbcast

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serving runtime: the public face of internal/serve. Where Replay
// runs one application's recorded schedule, Serve runs the chip as a
// long-running multi-tenant service: M tenant streams of collective
// requests are admitted against bounded queues, batched when
// compatible, spread over the progress engine's MPB lanes
// (Options.Channels) and arbitrated by a fairness policy — all on
// simulated virtual time, so every run is bit-deterministic. See the
// internal/serve package comment for the replica architecture.

// Serving types, aliased from internal/serve so callers configure the
// runtime without importing internal packages.
type (
	// ServeConfig tunes the runtime: fairness policy, admission bound,
	// batch caps, lane fan-out.
	ServeConfig = serve.Config
	// ServeStream is one tenant's job queue; ServeRequest one arrival.
	ServeStream  = serve.Stream
	ServeRequest = serve.Req
	// ServeStats is a run's outcome; TenantServeStats one tenant's.
	ServeStats       = serve.Result
	TenantServeStats = serve.TenantMetrics
)

// The fairness policies of ServeConfig.Policy.
const (
	PolicyRoundRobin = serve.PolicyRoundRobin
	PolicyWeighted   = serve.PolicyWeighted
)

// StreamFromTrace turns a recorded trace (ParseTrace, or a kernel
// generator) into a tenant stream: each record one request, arriving
// its delta+compute gap after the previous one.
func StreamFromTrace(tenant string, weight int, t *Trace) ServeStream {
	return serve.FromTrace(tenant, weight, t)
}

// ParseServeSpec parses an ocserve v1 text spec — runtime configuration
// plus tenant mix; see internal/serve/format.go for the grammar:
//
//	ocserve v1
//	policy wrr
//	tenant sgd 3
//	req allreduce 0 64 12.5
//
// FormatServeSpec renders the canonical inverse.
func ParseServeSpec(data []byte) (ServeConfig, []ServeStream, error) {
	sp, err := serve.Parse(data)
	if err != nil {
		return ServeConfig{}, nil, err
	}
	return sp.Config, sp.Streams, nil
}

// FormatServeSpec renders a spec in canonical ocserve v1 text.
func FormatServeSpec(cfg ServeConfig, streams []ServeStream) []byte {
	return serve.Format(&serve.Spec{Config: cfg, Streams: streams})
}

// Serve runs the chip as a multi-tenant collective service until every
// stream drains, and returns the aggregate and per-tenant metrics.
// cfg.Lanes defaults to the chip's Options.Channels and must not exceed
// it; algorithm resolution follows Options.Algorithm like every
// collective (single-batch rounds run the blocking collectives through
// full selection, concurrent batches the non-blocking one-sided twins).
// With Options.Trace the run emits "serve" spans on core 0's track —
// round instants, per-tenant queue-depth counters, async batch spans,
// end-of-run per-tenant summary counters — retrievable via Timeline.
//
// Serve consumes the System's single Run; build a fresh System per
// serving run (a second one is an error, as is a System whose
// Options.Channels leave the one-sided family — which every Serve's
// clock sync rides — no MPB room). Two Serves of the same mix on equal Systems produce
// byte-identical ServeStats (ServeStats.Fingerprint compares them).
func (s *System) Serve(cfg ServeConfig, streams []ServeStream) (ServeStats, error) {
	if err := s.preflight(true); err != nil {
		return ServeStats{}, err
	}
	channels := s.occfg.Channels
	if channels < 1 {
		channels = 1
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = channels
	}
	if cfg.Lanes > channels {
		return ServeStats{}, fmt.Errorf("ocbcast: Serve lanes %d exceed the chip's %d channel(s)", cfg.Lanes, channels)
	}
	if err := cfg.Validate(); err != nil {
		return ServeStats{}, err
	}
	if err := serve.ValidateStreams(streams, s.N()); err != nil {
		return ServeStats{}, err
	}
	l := serve.LayoutFor(cfg, streams, s.N())
	if err := fitsPrivate("the tenant mix's layout", l.TotalBytes()); err != nil {
		return ServeStats{}, err
	}
	board := serve.NewBoard(streams)
	var rep *serve.Sched
	s.Run(func(c *Core) {
		var h *serve.Hooks
		if s.obs != nil && c.ID() == 0 {
			h = serveHooks(s.obs, c, streams)
		}
		r := serve.Run(algsel.Server{E: c.env, Ctrl: l.CtrlAddr}, cfg, streams, l, board, h)
		if c.ID() == 0 {
			rep = r
			if s.obs != nil {
				emitServeSummary(s.obs, int64(c.Now()), r, board)
			}
		}
	})
	return serve.Collect(rep, board), nil
}

// serveHooks wires the scheduler's observability callbacks to the
// recorder on core 0's track: an instant per round (epoch + backlog),
// a counter per tenant queue, and an async span per batch from dispatch
// to completion. Hook timestamps use the core's live clock, so per-core
// event times stay nondecreasing as obs requires.
func serveHooks(o *obs.Recorder, c *Core, streams []ServeStream) *serve.Hooks {
	var ids []int64
	return &serve.Hooks{
		Epoch: func(round int, epochUs float64, queued int) {
			o.Instant(0, int64(c.Now()), "serve", "round",
				obs.Arg{Key: "round", Val: int64(round)},
				obs.Arg{Key: "queued", Val: int64(queued)})
		},
		Queue: func(tenant, depth int) {
			o.Counter(0, int64(c.Now()), "serve", streams[tenant].Tenant, int64(depth))
		},
		BatchBegin: func(seq int, op string, members, lines int) {
			id := o.AsyncID()
			ids = append(ids, id)
			o.Emit(obs.Event{
				Kind: obs.KindAsyncBegin, Core: 0, Time: int64(c.Now()),
				Cat: "serve", Name: "batch", ID: id, Str: op,
				A0: obs.Arg{Key: "members", Val: int64(members)},
				A1: obs.Arg{Key: "lines", Val: int64(lines)},
			})
		},
		BatchEnd: func(seq int) {
			o.AsyncEnd(ids[seq-1], 0, int64(c.Now()), "serve", "batch")
		},
	}
}

// emitServeSummary records the per-tenant outcome as end-of-run
// counters on core 0's track (completed, rejected, starved rounds, p99
// in µs), visible in Perfetto next to the batch spans. It runs inside
// core 0's body after the serving loop; t is the core's exact final
// clock, keeping the track's timestamps nondecreasing.
func emitServeSummary(o *obs.Recorder, t int64, rep *serve.Sched, b *serve.Board) {
	res := serve.Collect(rep, b)
	for _, tm := range res.Tenants {
		o.Counter(0, t, "serve.summary", tm.Tenant+"/completed", int64(tm.Completed))
		o.Counter(0, t, "serve.summary", tm.Tenant+"/rejected", int64(tm.Rejected))
		o.Counter(0, t, "serve.summary", tm.Tenant+"/starved_rounds", int64(tm.StarvedRounds))
		o.Counter(0, t, "serve.summary", tm.Tenant+"/p99_us", int64(tm.P99Us))
	}
}
