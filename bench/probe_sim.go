package main

import "repro/internal/sim"

// simSteps is how many Advance calls one ns_per_switch batch makes in
// total, spread over the workload's core count.
const simSteps = 48000

// probeSim drives the discrete-event engine alone: N processes and
// nothing of the chip on top.
func probeSim(p *probeCtx) {
	p.v["sim.spinup_us"] = p.batches("probe.sim.spinup", func(int) int64 {
		sim.NewEngine(p.n).Run(func(*sim.Proc) {})
		return 1
	}) / 1e3

	// Every process steps its clock by a different small amount, so the
	// run queue reorders on every step.
	steps := simSteps / p.n
	p.v["sim.ns_per_switch"] = p.batches("probe.sim.advance", func(int) int64 {
		e := sim.NewEngine(p.n)
		e.Run(func(pr *sim.Proc) {
			d := sim.Nanosecond * sim.Duration(1+pr.ID()%7)
			for i := 0; i < steps; i++ {
				pr.Advance(d)
			}
		})
		if sw := e.Switches(); sw > 0 {
			return sw
		}
		return int64(steps * p.n)
	})

	// A token goes round a ring: each process blocks until its turn
	// counter moves, then signals its neighbour.
	rounds := simSteps / 4 / p.n
	p.v["sim.ns_per_block_wake"] = p.batches("probe.sim.block_wake", func(int) int64 {
		e := sim.NewEngine(p.n)
		turn := make([]int, p.n)
		turn[0] = 1
		e.Run(func(pr *sim.Proc) {
			id := pr.ID()
			next := (id + 1) % p.n
			for r := 1; r <= rounds; r++ {
				want := r
				pr.Block(sim.WatchKey{Line: id}, func() bool { return turn[id] >= want })
				pr.Advance(sim.Nanosecond)
				turn[next]++
				e.Signal(sim.WatchKey{Line: next}, pr.Now())
			}
		})
		return int64(rounds * p.n)
	})
}
