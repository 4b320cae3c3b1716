package algsel

import (
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
)

// Env is the per-core execution environment algorithms run on: the RMA
// core, the two-sided port and collective layer, and lazily built
// one-sided state per (K, chunk) configuration. Create one per core
// inside Chip.Run (NewEnv); the public API attaches the core's existing
// occoll engine and OC-Bcast broadcaster so registry-routed calls share
// lane state (and therefore simulated timing) with the named methods.
type Env struct {
	Core *rma.Core
	Port *rcce.Port
	Comm *collective.Comm
	// Base is the configured one-sided parameter set (Options K, chunk,
	// channels); choices resolve against it with cfgFor.
	Base core.Config

	defaultOC *occoll.Collectives
	defaultBC *core.Broadcaster
	ocs       map[ocKey]*occoll.Collectives
	bcs       map[ocKey]*core.Broadcaster
}

// ocKey identifies one resolved one-sided configuration.
type ocKey struct{ k, chunk int }

// NewEnv builds the environment for one core over its collective layer
// comm (and so comm's port and RMA core). defaultOC and defaultBC may be
// nil; they are the instances to reuse when a choice resolves to the
// base configuration — passing the public Core's own engine keeps
// registry-routed calls byte-identical to the named methods.
func NewEnv(comm *collective.Comm, base core.Config,
	defaultOC *occoll.Collectives, defaultBC *core.Broadcaster) *Env {
	e := new(Env)
	e.Init(comm, base, defaultOC, defaultBC)
	return e
}

// Init makes e the environment NewEnv describes in place, for callers
// that hold their per-core state by value.
func (e *Env) Init(comm *collective.Comm, base core.Config,
	defaultOC *occoll.Collectives, defaultBC *core.Broadcaster) {
	port := comm.Port()
	if defaultBC != nil {
		// In mixed one-/two-sided programs the broadcaster's private
		// root-change fence lines alias RCCE's handshake lines; route its
		// quiesce through the shared barrier epoch (see core.SetFence).
		defaultBC.SetFence(port)
	}
	*e = Env{
		Core: port.Core(), Port: port, Comm: comm, Base: base,
		defaultOC: defaultOC, defaultBC: defaultBC,
	}
}

// OC returns the one-sided collective engine for a choice. The base
// configuration reuses the attached default engine. While the default
// engine has non-blocking requests in flight, every choice is clamped to
// it: a second engine's differently-laid-out lanes would overlap the
// in-flight lanes' MPB lines. The clamp is deterministic — outstanding
// counts are symmetric across cores for well-formed (chip-wide,
// same-order) programs — so all cores still agree on the layout.
func (e *Env) OC(ch Choice) *occoll.Collectives {
	cfg := cfgFor(e.Base, ch)
	if cfg == e.Base && e.defaultOC != nil {
		return e.defaultOC
	}
	if e.defaultOC != nil && e.defaultOC.Outstanding() > 0 {
		return e.defaultOC
	}
	key := ocKey{cfg.K, cfg.BufLines}
	if x, ok := e.ocs[key]; ok {
		return x
	}
	if e.ocs == nil {
		e.ocs = make(map[ocKey]*occoll.Collectives)
	}
	x := occoll.New(e.Core, e.Port, cfg)
	e.ocs[key] = x
	return x
}

// Bcaster returns the standalone OC-Bcast broadcaster for a choice,
// reusing the attached default for the base configuration.
func (e *Env) Bcaster(ch Choice) *core.Broadcaster {
	cfg := cfgFor(e.Base, ch)
	if cfg == e.Base && e.defaultBC != nil {
		return e.defaultBC
	}
	key := ocKey{cfg.K, cfg.BufLines}
	if b, ok := e.bcs[key]; ok {
		return b
	}
	if e.bcs == nil {
		e.bcs = make(map[ocKey]*core.Broadcaster)
	}
	b := core.NewBroadcaster(e.Core, cfg)
	b.SetFence(e.Port)
	e.bcs[key] = b
	return b
}
