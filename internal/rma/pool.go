package rma

import (
	"sync"

	"repro/internal/scc"
	"repro/internal/sim"
)

// Chip pool. A fresh chip is cheap in objects — NewChipN makes 15 and a
// channel per core, and first traffic draws on chip-level blocks — but
// not in bytes: every core's 8 KiB MPB share is allocated and zeroed up
// front and its private-memory pages and extent buffers again as the
// run touches them (28 KB per core for a barrier and one broadcast,
// 10 MB on a 384-core chip), and every core's goroutine is spawned anew. Harness loops that run thousands of short simulations
// acquire chips here instead and keep all of that warm. A released chip
// is Reset — which the equivalence tests pin as observationally
// identical to a fresh chip — and parked under a key derived from its
// exact configuration; Acquire returns a parked chip only on a full key
// match.
//
// The pool is safe for concurrent use (ParallelMap shards acquire from
// it simultaneously) and bounded per key, so sweeps over many topologies
// cannot hold more than a few warm chips per shape.

// chipKey identifies a poolable chip configuration exactly. Topology is
// reduced to its fingerprint string because it is not comparable; every
// other Config field is a value type.
type chipKey struct {
	topo    string
	n       int
	params  scc.Params
	cont    scc.ContentionParams
	noc     scc.NoCMode
	linkSvc sim.Duration
	cache   bool
}

func poolKeyOf(cfg scc.Config, n int) chipKey {
	return chipKey{
		topo:    cfg.Topology().Fingerprint(),
		n:       n,
		params:  cfg.Params,
		cont:    cfg.Contention,
		noc:     cfg.NoC,
		linkSvc: cfg.LinkSvc,
		cache:   cfg.CacheEnabled,
	}
}

// poolPerKey bounds how many idle chips one configuration may park: a
// few shards' worth, beyond which ReleaseChip simply drops the chip for
// the garbage collector.
const poolPerKey = 8

var chipPool = struct {
	mu    sync.Mutex
	chips map[chipKey][]*Chip
}{chips: make(map[chipKey][]*Chip)}

// AcquireChipN returns a ready-to-Run chip for cfg's first n cores: a
// pooled one when available, else a freshly built one. Pair with
// ReleaseChip when the simulation is done.
func AcquireChipN(cfg scc.Config, n int) *Chip {
	key := poolKeyOf(cfg, n)
	chipPool.mu.Lock()
	if s := chipPool.chips[key]; len(s) > 0 {
		c := s[len(s)-1]
		s[len(s)-1] = nil
		chipPool.chips[key] = s[:len(s)-1]
		chipPool.mu.Unlock()
		return c
	}
	chipPool.mu.Unlock()
	c := NewChipN(cfg, n)
	// Pooled chips keep their process goroutines parked between runs
	// (the pool bounds how many engines exist, so the parked-goroutine
	// pin is bounded too); ReleaseChip shuts them down before dropping
	// a chip.
	c.Engine.SetPersistent(true)
	return c
}

// ReleaseChip resets c and parks it for reuse. A chip that cannot be
// reset (mid-run or panicked) or that exceeds the per-key bound is
// dropped instead — never parked dirty.
func ReleaseChip(c *Chip) {
	if c == nil {
		return
	}
	if !c.Reset() {
		// Mid-run or panicked: parked goroutines (if any) are stuck at
		// arbitrary yield points; abandon the chip as a whole.
		return
	}
	key := poolKeyOf(c.Cfg, c.NCores)
	chipPool.mu.Lock()
	if s := chipPool.chips[key]; len(s) < poolPerKey {
		chipPool.chips[key] = append(s, c)
		chipPool.mu.Unlock()
		return
	}
	chipPool.mu.Unlock()
	// Over the bound: release the engine's parked goroutines so the
	// dropped chip is collectable.
	c.Engine.Shutdown()
}
