package rma

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/scc"
	"repro/internal/sim"
)

// contentionFreeCfg returns a config matching the paper's §3.1 analytic
// model exactly (no port queueing, analytic NoC), for cost assertions.
func contentionFreeCfg() scc.Config {
	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = false
	return cfg
}

func TestPutMemToMPBCostMatchesFormula8(t *testing.T) {
	cfg := contentionFreeCfg()
	cfg.CacheEnabled = false
	chip := NewChipN(cfg, 4)
	p := cfg.Params

	payload := make([]byte, 16*scc.CacheLine)
	for i := range payload {
		payload[i] = byte(i)
	}
	chip.Private(0).Write(0, payload)

	var got sim.Duration
	chip.Run(func(c *Core) {
		if c.ID() != 0 {
			return
		}
		start := c.Now()
		c.PutMemToMPB(2, 0, 0, 16)
		got = c.Now() - start
	})

	m := sim.Duration(16)
	dsrc := sim.Duration(scc.MemDistance(0))
	ddst := sim.Duration(scc.CoreDistance(0, 2))
	want := p.OMemPut +
		m*(p.OMemR+2*dsrc*p.Lhop) + // m * Cmem_r(dsrc)
		m*(p.OMpb+2*ddst*p.Lhop) // m * Cmpb_w(ddst)
	if got != want {
		t.Fatalf("put completion = %v, want %v (Formula 8)", got, want)
	}

	// Data integrity at the destination MPB.
	mpb := chip.MPB(2)
	for i := 0; i < 16; i++ {
		line := mpb.ReadLine(i, 1<<62)
		if !bytes.Equal(line, payload[i*scc.CacheLine:(i+1)*scc.CacheLine]) {
			t.Fatalf("line %d corrupted", i)
		}
	}
}

func TestGetMPBToMPBCostMatchesFormula11(t *testing.T) {
	cfg := contentionFreeCfg()
	chip := NewChipN(cfg, 6)
	p := cfg.Params

	var got sim.Duration
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 4: // read 8 lines from core 0's MPB
			start := c.Now()
			c.GetMPBToMPB(0, 0, 0, 8)
			got = c.Now() - start
		}
	})
	m := sim.Duration(8)
	d := sim.Duration(scc.CoreDistance(4, 0))
	want := p.OMpbGet +
		m*(p.OMpb+2*d*p.Lhop) + // m * Cmpb_r(d)
		m*(p.OMpb+2*p.Lhop) // m * Cmpb_w(1)
	if got != want {
		t.Fatalf("get completion = %v, want %v (Formula 11)", got, want)
	}
}

func TestGetMPBToMemCostMatchesFormula12(t *testing.T) {
	cfg := contentionFreeCfg()
	chip := NewChipN(cfg, 4)
	p := cfg.Params

	var got sim.Duration
	chip.Run(func(c *Core) {
		if c.ID() != 3 {
			return
		}
		start := c.Now()
		c.GetMPBToMem(1, 0, 0, 4)
		got = c.Now() - start
	})
	m := sim.Duration(4)
	d := sim.Duration(scc.CoreDistance(3, 1))
	dm := sim.Duration(scc.MemDistance(3))
	want := p.OMemGet +
		m*(p.OMpb+2*d*p.Lhop) + // m * Cmpb_r(d)
		m*(p.OMemW+2*dm*p.Lhop) // m * Cmem_w(dmem)
	if got != want {
		t.Fatalf("get-to-mem completion = %v, want %v (Formula 12)", got, want)
	}
}

func TestPutMPBToMPBCostMatchesFormula7(t *testing.T) {
	cfg := contentionFreeCfg()
	chip := NewChipN(cfg, 8)
	p := cfg.Params

	var got sim.Duration
	chip.Run(func(c *Core) {
		if c.ID() != 0 {
			return
		}
		start := c.Now()
		c.PutMPBToMPB(7, 16, 0, 12)
		got = c.Now() - start
	})
	m := sim.Duration(12)
	d := sim.Duration(scc.CoreDistance(0, 7))
	want := p.OMpbPut +
		m*(p.OMpb+2*p.Lhop) + // m * Cmpb_r(1): source is the local MPB
		m*(p.OMpb+2*d*p.Lhop) // m * Cmpb_w(d)
	if got != want {
		t.Fatalf("put mpb->mpb completion = %v, want %v (Formula 7)", got, want)
	}
}

// TestEndToEndTransfer moves a payload private->MPB->MPB->private across
// three cores and checks byte integrity, mirroring one OC-Bcast hop.
func TestEndToEndTransfer(t *testing.T) {
	chip := NewChipN(scc.DefaultConfig(), 8)
	payload := make([]byte, 32*scc.CacheLine)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	chip.Private(0).Write(1024, payload)

	const flagLine = 200
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.PutMemToMPB(0, 0, 1024, 32) // stage in own MPB
			c.SetFlag(5, flagLine, 1)
		case 5:
			c.WaitFlagGE(flagLine, 1)
			c.GetMPBToMPB(0, 0, 0, 32)
			c.SetFlag(7, flagLine, 1)
		case 7:
			c.WaitFlagGE(flagLine, 1)
			c.GetMPBToMem(5, 0, 2048, 32)
		}
	})
	got := make([]byte, len(payload))
	chip.Private(7).Read(got, 2048, len(got))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across private->MPB->MPB->private chain")
	}
	// Wait: core 7 copied from core 5's MPB before core 5 wrote it? The
	// flag protocol must prevent that; reaching here with intact bytes
	// proves causality held.
}

// TestFlagCausality: a waiter must never observe the flag before the
// data put that preceded the flag set becomes visible.
func TestFlagCausality(t *testing.T) {
	chip := NewChipN(scc.DefaultConfig(), 2)
	data := bytes.Repeat([]byte{0xEE}, scc.CacheLine)
	chip.Private(0).Write(0, data)
	var seen byte
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.PutMemToMPB(1, 0, 0, 1)
			c.SetFlag(1, 10, 42)
		case 1:
			c.WaitFlagGE(10, 42)
			line := c.Chip().MPB(1).ReadLine(0, c.Now())
			seen = line[0]
		}
	})
	if seen != 0xEE {
		t.Fatalf("waiter saw stale data %#x after flag", seen)
	}
}

func TestCacheReducesPutCost(t *testing.T) {
	cfg := contentionFreeCfg()
	cfg.CacheEnabled = true
	chip := NewChipN(cfg, 2)
	chip.Private(0).Write(0, make([]byte, 8*scc.CacheLine))

	var cold, warm sim.Duration
	chip.Run(func(c *Core) {
		if c.ID() != 0 {
			return
		}
		t0 := c.Now()
		c.PutMemToMPB(1, 0, 0, 8)
		cold = c.Now() - t0
		t1 := c.Now()
		c.PutMemToMPB(1, 0, 0, 8) // same source lines: all L1 hits
		warm = c.Now() - t1
	})
	p := cfg.Params
	dm := sim.Duration(scc.MemDistance(0))
	wantDiff := 8 * (p.OMemR + 2*dm*p.Lhop)
	if cold-warm != wantDiff {
		t.Fatalf("cache saving = %v, want %v (8 x Cmem_r)", cold-warm, wantDiff)
	}
	if chip.Counter[0].CacheHitLines != 8 {
		t.Fatalf("cache hits = %d, want 8", chip.Counter[0].CacheHitLines)
	}
}

func TestPortContentionDelaysConcurrentGets(t *testing.T) {
	// With contention on, 40 cores getting 128 lines from core 0's MPB
	// must finish later on average than a single core doing the same.
	const iters = 10 // sustained pressure, as in the paper's loops
	single := func() sim.Duration {
		chip := NewChipN(scc.DefaultConfig(), 48)
		var d sim.Duration
		chip.Run(func(c *Core) {
			if c.ID() == 24 {
				t0 := c.Now()
				for i := 0; i < iters; i++ {
					c.GetMPBToMPB(0, 0, 0, 128)
				}
				d = (c.Now() - t0) / iters
			}
		})
		return d
	}()

	chip := NewChipN(scc.DefaultConfig(), 48)
	finish := make([]sim.Duration, 48)
	chip.Run(func(c *Core) {
		if c.ID() == 0 {
			return
		}
		t0 := c.Now()
		for i := 0; i < iters; i++ {
			c.GetMPBToMPB(0, 0, 0, 128)
		}
		finish[c.ID()] = (c.Now() - t0) / iters
	})
	var slowest sim.Duration
	for _, f := range finish[1:] {
		if f > slowest {
			slowest = f
		}
	}
	if slowest <= single {
		t.Fatalf("47-way concurrent get slowest %v not slower than solo %v", slowest, single)
	}
	if slowest < 2*single {
		t.Errorf("contention too weak: slowest %v < 2x solo %v (paper: >2x)", slowest, single)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	chip := NewChipN(scc.DefaultConfig(), 2)
	chip.Private(0).Write(0, make([]byte, 4*scc.CacheLine))
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.PutMemToMPB(1, 0, 0, 4)
			c.SetFlag(1, 20, 1)
		case 1:
			c.WaitFlagGE(20, 1)
			c.GetMPBToMem(1, 0, 0, 4)
		}
	})
	c0, c1 := chip.Counter[0], chip.Counter[1]
	if c0.MemReadLines != 4 || c0.MPBWriteLines != 5 { // 4 data + 1 flag
		t.Fatalf("core0 counters wrong: %v", c0)
	}
	if c0.FlagSets != 1 || c0.PutOps != 1 {
		t.Fatalf("core0 op counts wrong: %v", c0)
	}
	if c1.MPBReadLines != 5 || c1.MemWriteLines != 4 { // 4 data + 1 flag wait read
		t.Fatalf("core1 counters wrong: %v", c1)
	}
	if c1.FlagWaits != 1 || c1.GetOps != 1 {
		t.Fatalf("core1 op counts wrong: %v", c1)
	}
	// The MPBs' pending-write indexes, summed: the put is one extent of
	// core 1's list, the flag one write of a line queue.
	if st := chip.PendingStats(); st.Listed != 1 || st.Queued != 1 || st.Moves != 0 || st.Reads == 0 || st.Visited < st.Reads {
		t.Fatalf("pending-index counters wrong: %+v", st)
	}
	if !chip.Reset() || chip.PendingStats() != (mem.PendingStats{}) {
		t.Fatalf("pending-index counters survive Reset: %+v", chip.PendingStats())
	}
}

func TestChipValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("0 cores", func() { NewChipN(scc.DefaultConfig(), 0) })
	mustPanic("49 cores", func() { NewChipN(scc.DefaultConfig(), 49) })
	bad := scc.DefaultConfig()
	bad.Params.Lhop = 0
	mustPanic("bad config", func() { NewChipN(bad, 2) })
	mustPanic("misaligned addr", func() {
		chip := NewChipN(scc.DefaultConfig(), 1)
		chip.Run(func(c *Core) { c.PutMemToMPB(0, 0, 7, 1) })
	})
	mustPanic("zero lines", func() {
		chip := NewChipN(scc.DefaultConfig(), 1)
		chip.Run(func(c *Core) { c.GetMPBToMPB(0, 0, 0, 0) })
	})
}

func TestDetailedNoCMatchesAnalyticWhenIdle(t *testing.T) {
	// On an idle mesh, detailed mode must not slow anything down:
	// Lhop >= LinkSvc so the analytic path cost dominates.
	run := func(mode scc.NoCMode) sim.Duration {
		cfg := contentionFreeCfg()
		cfg.NoC = mode
		chip := NewChipN(cfg, 48)
		var d sim.Duration
		chip.Run(func(c *Core) {
			if c.ID() == 47 {
				t0 := c.Now()
				c.GetMPBToMPB(0, 0, 0, 64)
				d = c.Now() - t0
			}
		})
		return d
	}
	a, det := run(scc.NoCAnalytic), run(scc.NoCDetailed)
	if a != det {
		t.Fatalf("idle-mesh detailed mode changed latency: analytic %v vs detailed %v", a, det)
	}
}

// BenchmarkReservePort measures one remote port reservation — ledger
// access, FIFO booking, penalty formula — with seven accessors hammering
// core 0's port from the chip's highest core ids. ns/op must not depend
// on the size of the chip.
func BenchmarkReservePort(b *testing.B) {
	for _, dim := range [][2]int{{6, 4}, {16, 12}} {
		chip := NewChip(scc.MeshConfig(dim[0], dim[1]))
		var cores [7]Core
		for i := range cores {
			cores[i] = Core{chip: chip, id: chip.NCores - 1 - i}
		}
		var now sim.Time // one clock per chip: b.Run calls the body repeatedly
		b.Run(fmt.Sprintf("cores=%d", chip.NCores), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += sim.Microsecond
				cores[i%len(cores)].reservePort(0, now, 1, i%2 == 0)
			}
		})
	}
}
