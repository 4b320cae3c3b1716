package harness

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// MeshStress regenerates the §3.3 mesh-contention experiment: every core
// not on tiles (2,2) or (3,2) repeatedly gets 128 cache lines from a core
// in mesh row 2 on the opposite side of the chip, so that (because the
// response data's X-Y route runs along row 2) all data packets cross the
// link between tiles (2,2) and (3,2). A probe core on tile (2,2) then
// measures its get latency from tile (3,2) under this load. The paper's
// finding — which the detailed NoC model must reproduce — is that the
// loaded-link latency matches the unloaded latency: at SCC scale the mesh
// is not a source of contention. The probe averages 10 gets.
func MeshStress(cfg scc.Config, effort int) ([]*Table, error) {
	const iters = 10
	cfg.NoC = scc.NoCDetailed
	// Isolate the mesh: MPB port queueing off so only link contention
	// could show up.
	cfg.Contention.Enabled = false

	probeCore := scc.Coord{X: 2, Y: 2}.TileID() * scc.CoresPerTile     // core on tile (2,2)
	probeTarget := scc.Coord{X: 3, Y: 2}.TileID()*scc.CoresPerTile + 1 // core on tile (3,2)
	hotLink := scc.Link{From: scc.Coord{X: 2, Y: 2}, To: scc.Coord{X: 3, Y: 2}}

	// target(c) returns the row-2 core on the opposite side of core c.
	target := func(c int) int {
		coord := scc.CoreCoord(c)
		x := 0
		if coord.X <= 2 {
			x = 5
		}
		return scc.Coord{X: x, Y: 2}.TileID() * scc.CoresPerTile
	}

	measure := func(loaded bool) float64 {
		chip := rma.NewChip(cfg)
		var probeMean float64
		chip.Run(func(c *rma.Core) {
			coord := scc.CoreCoord(c.ID())
			onHotTiles := (coord == scc.Coord{X: 2, Y: 2}) || (coord == scc.Coord{X: 3, Y: 2})
			switch {
			case c.ID() == probeCore:
				var total sim.Duration
				for i := 0; i < iters; i++ {
					t0 := c.Now()
					c.GetMPBToMPB(probeTarget, 0, 0, 128)
					total += c.Now() - t0
				}
				probeMean = total.Microseconds() / float64(iters)
			case loaded && !onHotTiles:
				for i := 0; i < 4*iters; i++ {
					c.GetMPBToMPB(target(c.ID()), 0, 0, 128)
				}
			}
		})
		return probeMean
	}

	free := measure(false)
	loaded := measure(true)

	tbl := &Table{
		Title:   "§3.3 mesh stress — get latency across the loaded (2,2)-(3,2) link",
		Columns: []string{"condition", "probe get 128CL (µs)"},
		Notes: []string{
			fmt.Sprintf("Loaded/unloaded ratio: %.3f (paper: no measurable drop).", loaded/free),
			fmt.Sprintf("Hot link under load: %s carries the stress traffic.", hotLink),
		},
	}
	tbl.AddRow("unloaded mesh", fmt.Sprintf("%.3f", free))
	tbl.AddRow("loaded mesh", fmt.Sprintf("%.3f", loaded))
	return []*Table{tbl}, nil
}
