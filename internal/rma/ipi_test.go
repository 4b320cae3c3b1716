package rma

import (
	"bytes"
	"testing"

	"repro/internal/scc"
	"repro/internal/sim"
)

func TestIPIDeliveryAndOverhead(t *testing.T) {
	cfg := contentionFreeCfg()
	chip := NewChipN(cfg, 4)
	p := cfg.Params
	var handled sim.Time
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.Compute(10 * sim.Microsecond)
			c.SendIPI(3)
		case 3:
			handled = c.WaitIPI()
		}
	})
	d := sim.Duration(scc.CoreDistance(0, 3))
	wantDelivery := 10*sim.Microsecond + p.OMpb + d*p.Lhop
	if handled != wantDelivery+2*sim.Microsecond {
		t.Fatalf("handler started at %v, want delivery %v + 2µs overhead", handled, wantDelivery)
	}
}

func TestIPIQueueing(t *testing.T) {
	chip := NewChipN(contentionFreeCfg(), 2)
	var count int
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			for i := 0; i < 3; i++ {
				c.SendIPI(1)
			}
		case 1:
			c.Compute(50 * sim.Microsecond) // all three arrive while busy
			for c.PendingIPIs() > 0 {
				c.WaitIPI()
				count++
			}
		}
	})
	if count != 3 {
		t.Fatalf("consumed %d interrupts, want 3", count)
	}
}

func TestIPIWaitBeforeSend(t *testing.T) {
	// The waiter blocks first; the IPI must wake it at delivery time.
	chip := NewChipN(contentionFreeCfg(), 2)
	var woke sim.Time
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.WaitIPI()
			woke = c.Now()
		case 1:
			c.Compute(7 * sim.Microsecond)
			c.SendIPI(0)
		}
	})
	if woke <= 7*sim.Microsecond {
		t.Fatalf("waiter woke at %v, before the IPI was sent", woke)
	}
}

func TestPutLineReadLineBytes(t *testing.T) {
	chip := NewChipN(scc.DefaultConfig(), 3)
	payload := []byte("mpmd-descriptor-0123456789abcdef") // 32 bytes
	var got []byte
	chip.Run(func(c *Core) {
		switch c.ID() {
		case 0:
			c.PutLine(2, 100, payload)
			c.SendIPI(2)
		case 2:
			c.WaitIPI()
			got = c.ReadLineBytes(2, 100)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatalf("descriptor round trip failed: %q", got)
	}
}

// PendingIPIs reports how many delivered-but-unconsumed interrupts the
// core has at its current virtual time (a non-blocking poll).
func (c *Core) PendingIPIs() int {
	st := &c.chip.slots[c.id].ipi
	n := 0
	for i := st.consumed; i < len(st.deliveries); i++ {
		if st.deliveries[i] <= c.Now() {
			n++
		}
	}
	return n
}
