package main

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

// probeNoC routes packets over the detailed mesh model. The default chip
// uses the analytic NoC mode and never calls it.
func probeNoC(p *probeCtx) {
	mesh := noc.NewMesh(p.topo, p.cfg.LinkSvc)
	tiles := p.topo.NumTiles()
	const routes = 2000
	var t sim.Time
	p.v["noc.ns_per_traverse"] = p.batches("probe.noc.traverse", func(int) int64 {
		for i := 0; i < routes; i++ {
			src := p.topo.TileCoord(i % tiles)
			dst := p.topo.TileCoord((i*7 + 3) % tiles)
			t = mesh.Traverse(t, src, dst, 1)
		}
		return routes
	})
}
