package rcce

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*31)
	}
	return b
}

func TestSendRecvSmall(t *testing.T) {
	chip := rma.NewChipN(scc.DefaultConfig(), 4)
	payload := fill(5*scc.CacheLine, 1)
	chip.Private(0).Write(0, payload)
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		switch c.ID() {
		case 0:
			p.Send(2, 0, 5)
		case 2:
			p.Recv(0, 64*scc.CacheLine, 5)
		}
	})
	got := make([]byte, len(payload))
	chip.Private(2).Read(got, 64*scc.CacheLine, len(got))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestSendRecvMultiChunk(t *testing.T) {
	// 600 lines forces three chunks (251 + 251 + 98).
	chip := rma.NewChipN(scc.DefaultConfig(), 2)
	payload := fill(600*scc.CacheLine, 9)
	chip.Private(0).Write(0, payload)
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		switch c.ID() {
		case 0:
			p.Send(1, 0, 600)
		case 1:
			p.Recv(0, 0, 600)
		}
	})
	got := make([]byte, len(payload))
	chip.Private(1).Read(got, 0, len(got))
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-chunk payload corrupted")
	}
}

func TestSendRecvBackToBackMessages(t *testing.T) {
	// Two consecutive messages on the same pair must not confuse the
	// monotonic chunk tags (regression guard for stale-flag reuse).
	chip := rma.NewChipN(scc.DefaultConfig(), 2)
	m1 := fill(scc.CacheLine, 3)
	m2 := fill(scc.CacheLine, 200)
	chip.Private(0).Write(0, m1)
	chip.Private(0).Write(scc.CacheLine, m2)
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		switch c.ID() {
		case 0:
			p.Send(1, 0, 1)
			p.Send(1, scc.CacheLine, 1)
		case 1:
			p.Recv(0, 0, 1)
			p.Recv(0, scc.CacheLine, 1)
		}
	})
	g1 := make([]byte, scc.CacheLine)
	g2 := make([]byte, scc.CacheLine)
	chip.Private(1).Read(g1, 0, scc.CacheLine)
	chip.Private(1).Read(g2, scc.CacheLine, scc.CacheLine)
	if !bytes.Equal(g1, m1) || !bytes.Equal(g2, m2) {
		t.Fatal("back-to-back messages corrupted")
	}
}

func TestRelayChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 relay, as in tree-based collectives.
	chip := rma.NewChipN(scc.DefaultConfig(), 4)
	payload := fill(300*scc.CacheLine, 77)
	chip.Private(0).Write(0, payload)
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		id := c.ID()
		if id > 0 {
			p.Recv(id-1, 0, 300)
		}
		if id < 3 {
			p.Send(id+1, 0, 300)
		}
	})
	got := make([]byte, len(payload))
	chip.Private(3).Read(got, 0, len(got))
	if !bytes.Equal(got, payload) {
		t.Fatal("relayed payload corrupted")
	}
}

func TestSendRecvProperty(t *testing.T) {
	// Random sizes and pairs round-trip intact.
	f := func(linesRaw uint16, dstRaw uint8) bool {
		lines := int(linesRaw%520) + 1
		dst := int(dstRaw%7) + 1
		chip := rma.NewChipN(scc.DefaultConfig(), 8)
		payload := fill(lines*scc.CacheLine, byte(lines))
		chip.Private(0).Write(0, payload)
		chip.Run(func(c *rma.Core) {
			p := NewPort(c)
			switch c.ID() {
			case 0:
				p.Send(dst, 0, lines)
			case dst:
				p.Recv(0, 0, lines)
			}
		})
		got := make([]byte, len(payload))
		chip.Private(dst).Read(got, 0, len(got))
		return bytes.Equal(got, payload)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Core i computes for i µs, then barriers. Everyone must leave the
	// barrier no earlier than the slowest arrival.
	chip := rma.NewChipN(scc.DefaultConfig(), 16)
	exit := make([]sim.Time, 16)
	var slowestArrival sim.Time
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		c.Compute(sim.Duration(c.ID()) * sim.Microsecond)
		if c.ID() == 15 {
			slowestArrival = c.Now()
		}
		p.Barrier()
		exit[c.ID()] = c.Now()
	})
	for i, e := range exit {
		if e < slowestArrival {
			t.Errorf("core %d left barrier at %v, before slowest arrival %v", i, e, slowestArrival)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	// Many consecutive barriers must not deadlock or lose epochs, and
	// cores must stay in lockstep: after each barrier, no core's exit
	// precedes any other core's entry.
	chip := rma.NewChipN(scc.DefaultConfig(), 9)
	const rounds = 20
	entries := make([][]sim.Time, rounds)
	exits := make([][]sim.Time, rounds)
	for r := range entries {
		entries[r] = make([]sim.Time, 9)
		exits[r] = make([]sim.Time, 9)
	}
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		for r := 0; r < rounds; r++ {
			c.Compute(sim.Duration((c.ID()*r)%5) * sim.Microsecond)
			entries[r][c.ID()] = c.Now()
			p.Barrier()
			exits[r][c.ID()] = c.Now()
		}
	})
	for r := 0; r < rounds; r++ {
		var maxEntry sim.Time
		for _, e := range entries[r] {
			if e > maxEntry {
				maxEntry = e
			}
		}
		for i, x := range exits[r] {
			if x < maxEntry {
				t.Fatalf("round %d: core %d exited at %v before last entry %v", r, i, x, maxEntry)
			}
		}
	}
}

func TestSendValidation(t *testing.T) {
	mustPanic := func(name string, f func(p *Port)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		chip := rma.NewChipN(scc.DefaultConfig(), 2)
		chip.Run(func(c *rma.Core) {
			if c.ID() == 0 {
				f(NewPort(c))
			}
		})
	}
	mustPanic("send to self", func(p *Port) { p.Send(0, 0, 1) })
	mustPanic("recv from self", func(p *Port) { p.Recv(0, 0, 1) })
	mustPanic("zero lines", func(p *Port) { p.Send(1, 0, 0) })
	mustPanic("misaligned", func(p *Port) { p.Send(1, 3, 1) })
	mustPanic("send past the chip", func(p *Port) { p.Send(2, 0, 1) })
	mustPanic("recv from a negative core", func(p *Port) { p.Recv(-1, 0, 1) })
}

// TestSendCostStructure checks the RCCE cost shape the paper's Formula 14
// builds on: a send+recv of m lines costs at least
// Cmem_put(m) + Cmem_get(m) end to end (one staging put, one remote get).
func TestSendCostStructure(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = false
	cfg.CacheEnabled = false
	chip := rma.NewChipN(cfg, 2)
	chip.Private(0).Write(0, fill(16*scc.CacheLine, 5))
	var recvDone sim.Time
	chip.Run(func(c *rma.Core) {
		p := NewPort(c)
		switch c.ID() {
		case 0:
			p.Send(1, 0, 16)
		case 1:
			p.Recv(0, 0, 16)
			recvDone = c.Now()
		}
	})
	pms := cfg.Params
	m := sim.Duration(16)
	// Lower bound: staging put (mem read + local MPB write per line)
	// plus remote get (remote MPB read + mem write per line).
	lower := pms.OMemPut + m*(pms.OMemR+2*pms.Lhop) + m*(pms.OMpb+2*pms.Lhop) +
		pms.OMemGet + m*(pms.OMpb) + m*(pms.OMemW)
	if recvDone < lower {
		t.Fatalf("recv completed at %v, below structural lower bound %v", recvDone, lower)
	}
}

// TestBarrierOnlyPortMakesNoMaps: a port's per-peer sequence table is
// taken by the first call that counts in it, so a port that only runs
// barriers — or carries a one-sided collective — never takes one, while
// Send/Recv and the turn grants still number from 1, per peer and
// direction.
func TestBarrierOnlyPortMakesNoMaps(t *testing.T) {
	chip := rma.NewChipN(scc.DefaultConfig(), 4)
	ports := make([]Port, 4)
	var store Store
	store.Init(4)
	chip.Private(0).Write(0, fill(scc.CacheLine, 7))
	chip.Run(func(c *rma.Core) {
		p := &ports[c.ID()]
		p.Init(c, &store)
		p.Barrier()
		p.Barrier()
		if p.seqs != nil {
			t.Errorf("core %d: a barrier-only port took a sequence table", c.ID())
		}
		switch c.ID() {
		case 0:
			p.Send(1, 0, 1)
			p.Send(1, 0, 1)
			c.Run(&turn{p: p, peer: 1})
		case 1:
			p.Recv(0, 0, 1)
			p.Recv(0, 0, 1)
			c.Run(&turn{p: p, peer: 0, grant: true})
		}
	})
	if got := ports[0].seqs; len(got) != 1 || got[0] != (peerSeqs{peer: 1, send: 2, wait: 1}) {
		t.Errorf("core 0's table is %+v, want one row for core 1: two sends, one turn awaited (numbering starts at 1)", got)
	}
	if got := ports[1].seqs; len(got) != 1 || got[0] != (peerSeqs{peer: 0, recv: 2, grant: 1}) {
		t.Errorf("core 1's table is %+v, want one row for core 0: two receives, one turn granted", got)
	}
	if ports[2].seqs != nil || ports[3].seqs != nil {
		t.Error("a port that never counted took a table")
	}
}

// turn is a one-step program: a send-turn grant to peer, or the wait
// for peer's grant.
type turn struct {
	p     *Port
	peer  int
	grant bool
}

func (t *turn) EmitStep(prog *rma.Prog, _ int) (more bool) {
	if t.grant {
		t.p.EmitGrantTurn(prog, t.peer)
	} else {
		t.p.EmitAwaitTurn(prog, t.peer)
	}
	return false
}

// BenchmarkSendRecvPair is one cold two-sided exchange: a fresh 2-core
// chip, a port per core, a 96-line message one way and a 1-line reply.
func BenchmarkSendRecvPair(b *testing.B) {
	cfg := scc.DefaultConfig()
	payload := fill(96*scc.CacheLine, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := rma.NewChipN(cfg, 2)
		chip.Private(0).Write(0, payload)
		chip.Run(func(c *rma.Core) {
			p := NewPort(c)
			if c.ID() == 0 {
				p.Send(1, 0, 96)
				p.Recv(1, 128*scc.CacheLine, 1)
			} else {
				p.Recv(0, 0, 96)
				p.Send(0, 0, 1)
			}
		})
	}
}
