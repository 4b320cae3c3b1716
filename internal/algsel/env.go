package algsel

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/workload"
)

// Env is one core's collective stack and the one dispatcher every call
// goes through. It holds every layer by value — the two-sided port and
// collective layer, the standalone OC-Bcast broadcaster (its root-change
// fence routed through the port) and, when the configured layout fits,
// the one-sided engine — plus the selection policy, and builds further
// one-sided state lazily per (K, chunk) choice. Init is the only place
// outside the layers' own packages that assembles them, so every program
// — the public API and the harness — runs the same stack.
type Env struct {
	Port rcce.Port
	Comm collective.Comm
	BC   core.Broadcaster
	// col is the one-sided engine for Base, valid iff lay has lanes.
	col occoll.Collectives
	// Base is the configured one-sided parameter set (Options K, chunk,
	// channels); choices resolve against it with cfgFor. lay is its MPB
	// layout.
	Base   core.Config
	lay    *scc.Layout
	policy Policy

	ocs map[ocKey]*occoll.Collectives
	bcs map[ocKey]*core.Broadcaster
}

// ocKey identifies one resolved one-sided configuration.
type ocKey struct{ k, chunk int }

// Init makes e core rc's stack in place over lay, base's validated
// layout, shared by every core of the chip (e points into itself and
// must not be copied afterwards). A layout without lanes leaves the
// one-sided family unavailable, its error kept for Collectives to
// report.
func (e *Env) Init(rc *rma.Core, base core.Config, lay *scc.Layout, policy Policy) {
	*e = Env{Base: base, lay: lay, policy: policy}
	e.Port.Init(rc)
	e.Comm.Init(&e.Port)
	e.BC.Init(rc, base, lay)
	e.BC.SetFence(&e.Port) // the layout's fence/barrier share needs it
	if e.lay.LaneErr == nil {
		e.col.Init(rc, &e.Port, base, lay)
	}
}

// OnChip runs body on every core of chip over that core's stack — one
// Env per core, all in one slice, on base under the paper-faithful
// policy — and finishes each stack when its body returns. It panics on a
// base whose layout does not fit.
func OnChip(chip *rma.Chip, base core.Config, body func(e *Env)) {
	lay, err := base.Layout()
	if err != nil {
		panic(err)
	}
	envs := alloc.Slice[Env](chip.NCores)
	chip.Run(func(c *rma.Core) {
		e := &envs[c.ID()]
		e.Init(c, base, lay, Policy{})
		body(e)
		e.Finish()
	})
}

// Core returns the underlying RMA core.
func (e *Env) Core() *rma.Core { return e.Port.Core() }

// Layout returns the base configuration's MPB layout.
func (e *Env) Layout() *scc.Layout { return e.lay }

// Collectives returns the one-sided engine for the base configuration, or
// the layout error that leaves the one-sided family no MPB room.
func (e *Env) Collectives() (*occoll.Collectives, error) {
	if e.lay.LaneErr != nil {
		return nil, e.lay.LaneErr
	}
	return &e.col, nil
}

// Finish ends the core's body: leaked non-blocking requests panic
// descriptively here instead of corrupting peers' MPB protocol state.
func (e *Env) Finish() {
	if e.lay.LaneErr == nil {
		e.col.Finish()
	}
}

// OC returns the one-sided collective engine for a choice. The base
// configuration uses the held engine. While it has non-blocking requests
// in flight, every choice is clamped to it: a second engine's
// differently-laid-out lanes would overlap the in-flight lanes' MPB
// lines. The clamp is deterministic — outstanding counts are symmetric
// across cores for well-formed (chip-wide, same-order) programs — so all
// cores still agree on the layout.
func (e *Env) OC(ch Choice) *occoll.Collectives {
	cfg := cfgFor(e.Base, ch)
	if e.lay.LaneErr == nil && (cfg == e.Base || e.col.Outstanding() > 0) {
		return &e.col
	}
	key := ocKey{cfg.K, cfg.BufLines}
	if x, ok := e.ocs[key]; ok {
		return x
	}
	if e.ocs == nil {
		e.ocs = make(map[ocKey]*occoll.Collectives)
	}
	x := occoll.New(e.Core(), &e.Port, cfg)
	e.ocs[key] = x
	return x
}

// Bcaster returns the standalone OC-Bcast broadcaster for a choice: the
// held one for the base configuration, a lazily built fenced one else.
func (e *Env) Bcaster(ch Choice) *core.Broadcaster {
	cfg := cfgFor(e.Base, ch)
	if cfg == e.Base {
		return &e.BC
	}
	key := ocKey{cfg.K, cfg.BufLines}
	if b, ok := e.bcs[key]; ok {
		return b
	}
	if e.bcs == nil {
		e.bcs = make(map[ocKey]*core.Broadcaster)
	}
	b := core.NewBroadcaster(e.Core(), cfg)
	b.SetFence(&e.Port)
	e.bcs[key] = b
	return b
}

// Run resolves and runs one blocking collective of op called through
// method m (Generic or OneSided).
func (e *Env) Run(op string, m Method, a Args) {
	alg, ch := e.Resolve(op, m, a.Lines)
	e.Exec(alg, ch, a)
}

// Resolve returns the algorithm and choice a blocking call of op through
// method m runs for a message of lines cache lines under the policy.
func (e *Env) Resolve(op string, m Method, lines int) (*Algorithm, Choice) {
	return e.policy.Resolve(op, m, lines)
}

// Exec runs algorithm alg at choice ch inside an "api" span.
func (e *Env) Exec(alg *Algorithm, ch Choice, a Args) {
	if o := e.apiSpan("api", alg.Op, ch, a); o != nil {
		alg.Run(e, ch, a)
		o.End(e.Core().ID(), int64(e.Core().Now()))
		return
	}
	alg.Run(e, ch, a)
}

// Issue resolves and starts one non-blocking collective of op inside an
// "api.issue" span. Requests always run on the default-layout engine (so
// lane round-robin, Progress and the leak check stay coherent): the
// resolved algorithm may vary, but its K/chunk are clamped to the
// configured defaults. The span covers only issue-time work (lane claim,
// begin barrier); the request's own occoll async span runs to protocol
// completion.
func (e *Env) Issue(op string, a Args) *occoll.Request {
	alg, ch := e.policy.Resolve(op, Nonblocking, a.Lines)
	if o := e.apiSpan("api.issue", op, ch, a); o != nil {
		r := alg.Issue(e, Choice{Alg: ch.Alg}, a)
		o.End(e.Core().ID(), int64(e.Core().Now()))
		return r
	}
	return alg.Issue(e, Choice{Alg: ch.Alg}, a)
}

// apiSpan opens the API-level container span for one collective call:
// cat "api"/"api.issue", named by the op, annotated with the resolved
// algorithm choice — so selection decisions are visible on the timeline.
// It claims no attribution time itself (BucketOther): the leaf rma spans
// underneath account for where the time actually goes.
func (e *Env) apiSpan(cat string, op string, ch Choice, a Args) *obs.Recorder {
	c := e.Core()
	o := c.Obs()
	if o != nil {
		o.Emit(obs.Event{
			Kind: obs.KindBegin, Bucket: obs.BucketOther,
			Core: int32(c.ID()), Time: int64(c.Now()),
			Cat: cat, Name: string(op), Str: ch.String(),
			A0: obs.Arg{Key: "lines", Val: int64(a.Lines)},
			A1: obs.Arg{Key: "root", Val: int64(a.Root)},
		})
	}
	return o
}

// Policy is how calls resolve to algorithms. Name is Options.Algorithm:
// "" runs each method's paper-faithful stack, "auto" Plan's
// predicted-fastest pick, and a registered name forces that algorithm
// wherever the call's operation (and method family) registers it.
type Policy struct {
	Name string
	Plan *Plan
}

// Method is the public method shape a call comes through; it fixes the
// call's paper-faithful default and the family "auto" and named
// overrides range over.
type Method uint8

const (
	// Generic methods (Broadcast, Reduce, AllReduce, Scatter, Gather,
	// AllGather) run the stack their name promises and select over every
	// algorithm.
	Generic Method = iota
	// OneSided methods (BcastOC, ReduceOC, ...) promise MPB-RMA-only
	// semantics: "oc" by default, and selection stays one-sided.
	OneSided
	// Nonblocking methods (IBcastOC, IReduceOC, ...) select like OneSided
	// among the algorithms with a non-blocking twin, falling back to "oc".
	Nonblocking
)

// compat is the algorithm each generic method runs under the
// paper-faithful policy; the one-sided and non-blocking methods run "oc".
var compat = map[string]string{
	workload.OpBcast:     "ocbcast",
	workload.OpReduce:    "twosided",
	workload.OpAllReduce: "hybrid",
	workload.OpScatter:   "twosided",
	workload.OpGather:    "twosided",
	workload.OpAllGather: "twosided",
}

// Resolve returns the algorithm and choice a call of op through method
// m runs for a message of lines cache lines: the named override when it
// names an algorithm of this op and family, the plan's pick under
// "auto", the paper-faithful default otherwise.
func (p Policy) Resolve(op string, m Method, lines int) (*Algorithm, Choice) {
	def := "oc"
	if m == Generic {
		def = compat[op]
	}
	ch := Choice{Alg: def}
	switch p.Name {
	case "":
	case "auto":
		if p.Plan != nil {
			bands := p.Plan.OneSidedBands
			if m == Generic {
				bands = p.Plan.Bands
			}
			if planned, ok := chooseBand(bands[op], lines); ok {
				ch = planned
			}
		}
	default:
		if a, ok := Lookup(op, p.Name); ok && (m == Generic || a.OneSided) {
			ch = Choice{Alg: p.Name}
		}
	}
	a, ok := Lookup(op, ch.Alg)
	if ok && m == Nonblocking && a.Issue == nil {
		a, ok = Lookup(op, def)
		ch = Choice{Alg: def}
	}
	if !ok {
		panic(fmt.Sprintf("algsel: no registered algorithm %q for %s", ch.Alg, op))
	}
	return a, ch
}
