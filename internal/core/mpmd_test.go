package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// TestMPMDBroadcast: receivers learn root/addr/size from the activation
// descriptor instead of matching call arguments.
func TestMPMDBroadcast(t *testing.T) {
	const n, lines, root = 48, 200, 0
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	payload := pattern(lines*scc.CacheLine, 42)
	chip.Private(root).Write(4096, payload)

	gotRoot := make([]int, n)
	gotAddr := make([]int, n)
	gotLines := make([]int, n)
	chip.Run(func(c *rma.Core) {
		b := NewBroadcaster(c, DefaultConfig())
		if c.ID() == root {
			b.Announce(4096, lines)
			return
		}
		// An "OS service loop": blocked until interrupted.
		gotRoot[c.ID()], gotAddr[c.ID()], gotLines[c.ID()] = b.HandleAnnounce()
	})
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		if gotRoot[i] != root || gotAddr[i] != 4096 || gotLines[i] != lines {
			t.Fatalf("core %d decoded descriptor (%d,%d,%d), want (%d,4096,%d)",
				i, gotRoot[i], gotAddr[i], gotLines[i], root, lines)
		}
		got := make([]byte, len(payload))
		chip.Private(i).Read(got, 4096, len(got))
		if !bytes.Equal(got, payload) {
			t.Fatalf("core %d payload corrupted", i)
		}
	}
}

// TestMPMDNonZeroRootAndBusyReceivers: activation reaches cores that are
// busy computing when the interrupt fires, from a non-zero root.
func TestMPMDNonZeroRootAndBusyReceivers(t *testing.T) {
	const n, lines, root = 12, 97, 7
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	payload := pattern(lines*scc.CacheLine, 9)
	chip.Private(root).Write(0, payload)
	chip.Run(func(c *rma.Core) {
		b := NewBroadcaster(c, DefaultConfig())
		if c.ID() == root {
			b.Announce(0, lines)
			return
		}
		// Busy doing unrelated MPMD work of varying length.
		c.Compute(sim.Duration(c.ID()) * 3 * sim.Microsecond)
		b.HandleAnnounce()
	})
	for i := 0; i < n; i++ {
		got := make([]byte, len(payload))
		chip.Private(i).Read(got, 0, len(got))
		if !bytes.Equal(got, payload) {
			t.Fatalf("core %d payload corrupted", i)
		}
	}
}

// TestMPMDThenSPMD: an MPMD broadcast followed by a normal Bcast from the
// same root must compose (sequence bases stay aligned via the
// descriptor).
func TestMPMDThenSPMD(t *testing.T) {
	const n, root = 8, 0
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	p1 := pattern(10*scc.CacheLine, 1)
	p2 := pattern(20*scc.CacheLine, 2)
	chip.Private(root).Write(0, p1)
	chip.Private(root).Write(8192, p2)
	chip.Run(func(c *rma.Core) {
		b := NewBroadcaster(c, DefaultConfig())
		if c.ID() == root {
			b.Announce(0, 10)
			b.Bcast(root, 8192, 20)
			return
		}
		b.HandleAnnounce()
		b.Bcast(root, 8192, 20)
	})
	for i := 0; i < n; i++ {
		g1 := make([]byte, len(p1))
		g2 := make([]byte, len(p2))
		chip.Private(i).Read(g1, 0, len(g1))
		chip.Private(i).Read(g2, 8192, len(g2))
		if !bytes.Equal(g1, p1) || !bytes.Equal(g2, p2) {
			t.Fatalf("core %d corrupted in MPMD->SPMD sequence", i)
		}
	}
}

// TestMPMDDescriptorLineReserved: the activation descriptor shares no
// line with a flag. {K: 1, BufLines: 251} once passed Validate with its
// done flag on the descriptor's line, where the descriptor's first 8
// bytes (root | lines<<32) satisfied an interior node's done-wait before
// its child had consumed the buffer: with one receiver late to
// HandleAnnounce, every core below it got corrupt bytes and nothing
// panicked. The descriptor now sits in OC-Bcast's buffers, and a layout
// whose flags reach RCCE's barrier line is rejected naming it. The
// largest layouts that do fit must deliver intact in that schedule.
func TestMPMDDescriptorLineReserved(t *testing.T) {
	for _, bad := range []Config{{K: 1, BufLines: 251}, {K: 1, BufLines: 250}} {
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), "collides with rcce barrier") {
			t.Fatalf("%+v: a layout reaching RCCE's flags must be rejected naming them, got %v", bad, err)
		}
	}
	const lines = 1200
	payload := pattern(lines*scc.CacheLine, 7)
	for _, cfg := range []Config{{K: 1, BufLines: 249}, {K: 4, BufLines: 123, DoubleBuffer: true}} {
		if lay, err := cfg.Layout(); err != nil || lay.OCNotify+cfg.K != scc.RCCEStaging-1 {
			t.Fatalf("%+v does not end right below RCCE's flags (%v)", cfg, err)
		}
		for _, n := range []int{4, 8} {
			chip := rma.NewChipN(scc.DefaultConfig(), n)
			chip.Private(0).Write(0, payload)
			chip.Run(func(c *rma.Core) {
				b := NewBroadcaster(c, cfg)
				if c.ID() == 0 {
					b.Announce(0, lines)
					return
				}
				if c.ID() == 2 {
					c.Compute(5 * sim.Millisecond)
				}
				b.HandleAnnounce()
			})
			got := make([]byte, len(payload))
			for i := 1; i < n; i++ {
				chip.Private(i).Read(got, 0, len(got))
				if !bytes.Equal(got, payload) {
					t.Errorf("%+v on %d cores: core %d payload corrupted", cfg, n, i)
				}
			}
		}
	}
}

func TestMPMDAnnounceValidation(t *testing.T) {
	mustPanic := func(name string, f func(b *Broadcaster)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		chip := rma.NewChipN(scc.DefaultConfig(), 1)
		chip.Run(func(c *rma.Core) {
			f(NewBroadcaster(c, DefaultConfig()))
		})
	}
	mustPanic("zero lines", func(b *Broadcaster) { b.Announce(0, 0) })
	mustPanic("misaligned", func(b *Broadcaster) { b.Announce(3, 1) })
}
