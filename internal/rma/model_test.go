package rma_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/model"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// TestPutMemToMPBLatencyMatchesFormula10: the last line of a put from
// private memory becomes visible in the destination MPB exactly at the
// model's L^mem_put (Formula 10, model.LMemPut) after the put starts,
// and not a picosecond earlier; the put completes at C^mem_put
// (Formula 8).
func TestPutMemToMPBLatencyMatchesFormula10(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = false
	cfg.CacheEnabled = false
	chip := rma.NewChipN(cfg, 4)
	const lines = 16
	payload := make([]byte, lines*scc.CacheLine)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	chip.Private(0).Write(0, payload)
	var start, done sim.Time
	chip.Run(func(c *rma.Core) {
		if c.ID() == 0 {
			start = c.Now()
			c.PutMemToMPB(2, 0, 0, lines)
			done = c.Now()
		}
	})
	m := model.New(cfg.Params)
	dsrc, ddst := scc.MemDistance(0), scc.CoreDistance(0, 2)
	if got, want := done-start, m.CMemPut(lines, dsrc, ddst); got != want {
		t.Fatalf("put completion = %v, want %v (Formula 8)", got, want)
	}
	visible := start + m.LMemPut(lines, dsrc, ddst)
	last := binary.LittleEndian.Uint64(payload[(lines-1)*scc.CacheLine:])
	if got := chip.MPB(2).ProbeU64(lines-1, visible-1); got != 0 {
		t.Errorf("the last line reads %#x a picosecond before L^mem_put", got)
	}
	if got := chip.MPB(2).ProbeU64(lines-1, visible); got != last {
		t.Errorf("the last line reads %#x at L^mem_put, want %#x (Formula 10)", got, last)
	}
}
