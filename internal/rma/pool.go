package rma

import (
	"runtime"
	"sync"

	"repro/internal/scc"
	"repro/internal/sim"
)

// Chip pool. A fresh chip is cheap in objects — NewChipN makes 15
// whatever its core count, first traffic draws on chip-level blocks, and
// its procs' coroutines come from the engine's process-wide idle list —
// but not in bytes: every core's 8 KiB MPB share is allocated and zeroed
// up front, and extent buffers and the chip's private-memory pages again
// as the run touches them (17 KB per core for a barrier and one
// broadcast, 6.4 MB on a 384-core chip). Harness loops that run
// thousands of short simulations acquire chips here instead and keep all
// of that warm. A released chip is Reset — which the equivalence tests
// pin as observationally identical to a fresh chip — and parked under a
// key derived from its exact configuration; Acquire returns a parked
// chip only on a full key match.
//
// The pool is safe for concurrent use (ParallelMap shards acquire from
// it simultaneously) and bounded per key, so sweeps over many topologies
// cannot hold more than a few warm chips per shape, and per chip in the
// private memory it keeps (poolMaxPrivateBytes).

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
	return NewChipN(cfg, n)
}

// poolMaxPrivateBytes bounds the private memory a parked chip may hold.
// Reset keeps the page pool's pages, so a chip that ran one large cell
// would pin them for as long as it stays parked. The pool holds each
// distinct page once (Chip.HeldBytes): a 384-core allgather of 256-line
// blocks peaks near 4 MB (2.4 GB while every core kept its own pages),
// and a 1 MiB broadcast about 1 MiB on any chip, so a chip is dropped
// only after a cell whose cores hold over 128 MiB of distinct data;
// rebuilding one costs little next to the simulation that filled it.
const poolMaxPrivateBytes = 128 << 20

// ReleaseChip resets c and parks it for reuse. A chip that cannot be
// reset (mid-run or panicked), holds more than poolMaxPrivateBytes of
// private-memory pages or exceeds the per-key bound is dropped instead —
// never parked dirty.
func ReleaseChip(c *Chip) {
	if c == nil {
		return
	}
	if !c.Reset() {
		// Mid-run or panicked: its state is wherever the panic left it;
		// abandon the chip as a whole.
		return
	}
	if c.HeldBytes() > poolMaxPrivateBytes {
		// Hand a big chip's pages back now instead of at whatever
		// collection the heap's growth schedules next: a sweep's next cell
		// is often as big, and until then both would be resident. The
		// caller still holds c, so unlink its memories first.
		c.slots = nil
		runtime.GC()
		return
	}
	key := poolKeyOf(c.Cfg, c.NCores)
	chipPool.mu.Lock()
	if s := chipPool.chips[key]; len(s) < poolPerKey {
		chipPool.chips[key] = append(s, c)
	}
	chipPool.mu.Unlock()
}
