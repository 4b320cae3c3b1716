package rma_test

import (
	"fmt"
	"testing"

	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
)

// TestBulkExtentAllocFree pins the bulk RMA data path: on a warmed
// pooled chip, a full Reset+Run cycle of put/get traffic — extents,
// payload staging, port reservations, flag signals — performs zero heap
// allocations.
func TestBulkExtentAllocFree(t *testing.T) {
	cfg := scc.DefaultConfig()
	chip := rma.AcquireChipN(cfg, 4)
	defer rma.ReleaseChip(chip)

	body := func(c *rma.Core) {
		if c.ID() == 0 {
			for rep := 0; rep < 4; rep++ {
				c.PutMPBToMPB(1, 0, 0, 16)
				c.PutMemToMPB(2, 0, 0, 16)
				c.SetFlag(3, 40, uint64(rep+1))
			}
		} else if c.ID() == 3 {
			c.WaitFlagGE(40, 4)
		}
	}
	chip.Run(body) // warm payload buffers, extents, watcher list
	allocs := testing.AllocsPerRun(20, func() {
		if !chip.Reset() {
			t.Fatal("Reset refused")
		}
		chip.Run(body)
	})
	if allocs > 0 {
		t.Errorf("warmed bulk-RMA Reset+Run allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestColdChipAllocsPerChipNotPerCore pins what building a chip costs:
// a fixed number of allocations whatever the core count — per-core state
// is one array of values over shared backing, and the procs' coroutines
// come from the engine's idle list at Run.
func TestColdChipAllocsPerChipNotPerCore(t *testing.T) {
	for _, dim := range [][2]int{{6, 4}, {16, 12}} {
		cfg := scc.MeshConfig(dim[0], dim[1])
		n := cfg.Topology().NumCores()
		allocs := testing.AllocsPerRun(3, func() { rma.NewChipN(cfg, n) })
		if allocs > 20 {
			t.Errorf("NewChipN(%d cores) allocates %.0f objects, want ≤ 20", n, allocs)
		}
	}
}

// BenchmarkColdChip is the cold path of one simulation at its smallest:
// build a chip, run one barrier on it, drop it — what every op of the
// repository's benchmark pays before its first collective.
func BenchmarkColdChip(b *testing.B) {
	for _, dim := range [][2]int{{6, 4}, {16, 12}} {
		cfg := scc.MeshConfig(dim[0], dim[1])
		n := cfg.Topology().NumCores()
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chip := rma.NewChipN(cfg, n)
				ports := make([]rcce.Port, n)
				var st rcce.Store
				st.Init(n)
				chip.Run(func(c *rma.Core) {
					p := &ports[c.ID()]
					p.Init(c, &st)
					p.Barrier()
				})
			}
		})
	}
}
