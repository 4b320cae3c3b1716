// Package noc models the SCC's 2D-mesh network-on-chip at link
// granularity. The paper's model charges only d·Lhop per packet because
// §3.3 showed the mesh is never a bottleneck at SCC scale; this package
// exists to let the simulator *demonstrate* that finding (the mesh-stress
// experiment) and to serve as an ablation: with detailed accounting on,
// results must match analytic mode within measurement noise.
package noc

import (
	"sort"

	"repro/internal/scc"
	"repro/internal/sim"
)

// Mesh tracks per-link FIFO occupancy for every directed link of a w×h
// tile grid. Links live in a preallocated slice indexed by a dense link
// id (tile × direction) rather than a map: Traverse reserves every link
// of every path in detailed-NoC mode, so the lookup is hot, and an array
// index costs no hashing and no per-key allocation. Resources are still
// created lazily on first use, which keeps the analytic mode (which
// never traverses) allocation-free and the link creation order — and
// therefore determinism — identical to the map version.
type Mesh struct {
	topo    scc.Topology
	linkSvc sim.Duration
	links   []*sim.Resource
}

// Directed link directions for the dense link id: east, west, north,
// south of the link's source tile.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// NewMesh creates a mesh over the given topology whose links serve one
// 32 B packet per linkSvc.
func NewMesh(topo scc.Topology, linkSvc sim.Duration) *Mesh {
	return &Mesh{
		topo:    topo,
		linkSvc: linkSvc,
		links:   make([]*sim.Resource, topo.NumTiles()*numDirs),
	}
}

// linkIndex maps a directed link between adjacent routers to its dense
// id: the source tile's id times the direction count plus the direction.
// Every XYPath link is adjacent by construction, so the mapping is total
// and injective over the links Traverse can visit.
func (m *Mesh) linkIndex(l scc.Link) int {
	dir := dirEast
	switch {
	case l.To.X == l.From.X+1:
		dir = dirEast
	case l.To.X == l.From.X-1:
		dir = dirWest
	case l.To.Y == l.From.Y+1:
		dir = dirNorth
	default:
		dir = dirSouth
	}
	return m.topo.TileID(l.From)*numDirs + dir
}

// linkAt reconstructs the directed link a dense id denotes.
func (m *Mesh) linkAt(idx int) scc.Link {
	from := m.topo.TileCoord(idx / numDirs)
	to := from
	switch idx % numDirs {
	case dirEast:
		to.X++
	case dirWest:
		to.X--
	case dirNorth:
		to.Y++
	case dirSouth:
		to.Y--
	}
	return scc.Link{From: from, To: to}
}

func (m *Mesh) link(l scc.Link) *sim.Resource {
	idx := m.linkIndex(l)
	r := m.links[idx]
	if r == nil {
		r = sim.NewResource(m.linkSvc)
		m.links[idx] = r
	}
	return r
}

// Traverse books npackets packets on every link of the X-Y path from src
// to dst starting at time t, and returns the time the last packet clears
// the last link. With an idle mesh this equals
// t + hops·linkSvc + (npackets-1)·linkSvc (pipelined cut-through); the
// caller combines it (by max) with the analytic d·Lhop cost, which is
// larger on an idle mesh because Lhop ≥ linkSvc.
func (m *Mesh) Traverse(t sim.Time, src, dst scc.Coord, npackets int) sim.Time {
	if npackets <= 0 {
		return t
	}
	path := m.topo.XYPath(src, dst)
	if len(path) == 0 {
		return t
	}
	// Virtual cut-through: the head packet advances to the next link
	// one link-service time after this link starts serving it, while
	// follow-on packets pipeline behind. On an idle mesh the whole
	// transfer clears in (hops + npackets - 1) link-service times.
	head := t // head packet arrival at the next link's input
	var last sim.Time
	for _, l := range path {
		finish := m.link(l).Reserve(head, npackets)
		start := finish - sim.Duration(int64(npackets)*int64(m.linkSvc))
		head = start + m.linkSvc
		last = finish
	}
	return last
}

// LinkQueueStats returns aggregate queueing across all links with at least
// one reservation, sorted by link name — used to verify the paper's "mesh
// is not a source of contention" claim.
func (m *Mesh) LinkQueueStats() []LinkStat {
	var out []LinkStat
	for idx, r := range m.links {
		if r == nil {
			continue
		}
		res, units, busy, queued := r.Stats()
		out = append(out, LinkStat{
			Link:         m.linkAt(idx),
			Reservations: res,
			Packets:      units,
			Busy:         busy,
			Queued:       queued,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link.String() < out[j].Link.String() })
	return out
}

// LinkStat summarizes one link's utilisation.
type LinkStat struct {
	Link         scc.Link
	Reservations int64
	Packets      int64
	Busy         sim.Duration
	Queued       sim.Duration
}

// Reset clears all link schedules and statistics.
func (m *Mesh) Reset() {
	for _, r := range m.links {
		if r != nil {
			r.Reset()
		}
	}
}
