package ocbcast_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	ocbcast "repro"
)

func payload(lines int) []byte {
	b := make([]byte, lines*ocbcast.CacheLineBytes)
	for i := range b {
		b[i] = byte(i*17 + 3)
	}
	return b
}

func TestPublicBroadcast(t *testing.T) {
	sys := ocbcast.New(ocbcast.Options{})
	if sys.N() != ocbcast.MaxCores {
		t.Fatalf("default cores = %d, want %d", sys.N(), ocbcast.MaxCores)
	}
	const lines = 100
	p := payload(lines)
	sys.WritePrivate(0, 0, p)
	sys.Run(func(c *ocbcast.Core) {
		c.Broadcast(0, 0, lines)
	})
	for i := 0; i < sys.N(); i++ {
		if !bytes.Equal(sys.ReadPrivate(i, 0, len(p)), p) {
			t.Fatalf("core %d payload corrupted", i)
		}
	}
	// Counters are exposed: root read the message once from off-chip.
	if got := sys.Counters(0).MemReadLines; got != lines {
		t.Fatalf("root off-chip reads = %d, want %d", got, lines)
	}
}

func TestPublicBaselinesAndOptions(t *testing.T) {
	for _, alg := range []string{"binomial", "sag"} {
		sys := ocbcast.New(ocbcast.Options{Cores: 16, K: 3, DisableContention: true})
		const lines = 60
		p := payload(lines)
		sys.WritePrivate(5, 0, p)
		sys.Run(func(c *ocbcast.Core) {
			if alg == "binomial" {
				c.BroadcastBinomial(5, 0, lines)
			} else {
				c.BroadcastScatterAllgather(5, 0, lines)
			}
		})
		for i := 0; i < 16; i++ {
			if !bytes.Equal(sys.ReadPrivate(i, 0, len(p)), p) {
				t.Fatalf("%s: core %d corrupted", alg, i)
			}
		}
	}
}

func TestPublicSendRecvBarrier(t *testing.T) {
	sys := ocbcast.New(ocbcast.Options{Cores: 4})
	p := payload(10)
	sys.WritePrivate(1, 0, p)
	var t3after float64
	sys.Run(func(c *ocbcast.Core) {
		switch c.ID() {
		case 1:
			c.Compute(5)
			c.Send(3, 0, 10)
		case 3:
			c.Recv(1, 0, 10)
		}
		c.Barrier()
		if c.ID() == 0 {
			t3after = c.NowMicros()
		}
	})
	if !bytes.Equal(sys.ReadPrivate(3, 0, len(p)), p) {
		t.Fatal("send/recv corrupted")
	}
	if t3after < 5 {
		t.Fatalf("barrier released core 0 at %.2fµs, before the transfer could finish", t3after)
	}
}

func TestPublicAllReduce(t *testing.T) {
	const n, lines = 8, 2
	sys := ocbcast.New(ocbcast.Options{Cores: n})
	for i := 0; i < n; i++ {
		b := make([]byte, lines*ocbcast.CacheLineBytes)
		for lane := 0; lane*8 < len(b); lane++ {
			binary.LittleEndian.PutUint64(b[lane*8:], uint64(i+1))
		}
		sys.WritePrivate(i, 0, b)
	}
	sys.Run(func(c *ocbcast.Core) {
		c.AllReduce(0, 4096, lines, ocbcast.SumInt64)
	})
	want := uint64(n * (n + 1) / 2)
	for i := 0; i < n; i++ {
		b := sys.ReadPrivate(i, 0, lines*ocbcast.CacheLineBytes)
		for lane := 0; lane*8 < len(b); lane++ {
			if got := binary.LittleEndian.Uint64(b[lane*8:]); got != want {
				t.Fatalf("core %d lane %d = %d, want %d", i, lane, got, want)
			}
		}
	}
}

func TestPublicGatherScatterAllGather(t *testing.T) {
	const n, lines = 6, 1
	bb := lines * ocbcast.CacheLineBytes
	sys := ocbcast.New(ocbcast.Options{Cores: n})
	for i := 0; i < n; i++ {
		blk := payload(lines)
		blk[0] = byte(i)
		sys.WritePrivate(i, i*bb, blk)
	}
	sys.Run(func(c *ocbcast.Core) {
		c.Gather(0, 0, lines)
		c.Barrier()
		c.AllGather(8192, lines) // independent region
	})
	for i := 0; i < n; i++ {
		if got := sys.ReadPrivate(0, i*bb, 1)[0]; got != byte(i) {
			t.Fatalf("gather: root block %d header = %d", i, got)
		}
	}
}

// randPayload is a deterministic pseudo-random buffer (seeded per core).
func randPayload(lines, seed int) []byte {
	b := make([]byte, lines*ocbcast.CacheLineBytes)
	s := uint64(seed)*2654435761 + 12345
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 56)
	}
	return b
}

// TestAllReduceOCMatchesTwoSidedComposition cross-validates the one-sided
// subsystem: AllReduceOC must produce byte-for-byte the same result as
// the two-sided Reduce + broadcast composition, on random payloads, for
// several fan-outs — exercised on ONE chip so the families' MPB
// coexistence is covered too.
func TestAllReduceOCMatchesTwoSidedComposition(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		const lines = 13
		nbytes := lines * ocbcast.CacheLineBytes
		const regionA, regionB, scratch = 0, 1 << 16, 1 << 17
		sys := ocbcast.New(ocbcast.Options{K: k})
		for i := 0; i < sys.N(); i++ {
			p := randPayload(lines, 100*k+i)
			sys.WritePrivate(i, regionA, p)
			sys.WritePrivate(i, regionB, p)
		}
		sys.Run(func(c *ocbcast.Core) {
			c.AllReduceOC(regionA, lines, ocbcast.SumInt64)
			// Two-sided composition on identical inputs, same chip.
			c.Reduce(0, regionB, scratch, lines, ocbcast.SumInt64)
			c.BroadcastBinomial(0, regionB, lines)
		})
		for i := 0; i < sys.N(); i++ {
			a := sys.ReadPrivate(i, regionA, nbytes)
			b := sys.ReadPrivate(i, regionB, nbytes)
			if !bytes.Equal(a, b) {
				t.Fatalf("k=%d: core %d AllReduceOC differs from two-sided composition", k, i)
			}
		}
	}
}

// TestPublicOneSidedGatherScatter covers the remaining OC family members
// end to end through the public API.
func TestPublicOneSidedGatherScatter(t *testing.T) {
	const n, lines = 12, 3
	bb := lines * ocbcast.CacheLineBytes
	sys := ocbcast.New(ocbcast.Options{Cores: n, K: 3})
	for i := 0; i < n; i++ {
		sys.WritePrivate(2, i*bb, randPayload(lines, i))
	}
	agBase := 2 * n * bb
	sys.Run(func(c *ocbcast.Core) {
		c.ScatterOC(2, 0, lines)
		blk := c.ReadOwnPrivate(c.ID()*bb, bb)
		c.WriteOwnPrivate(agBase+c.ID()*bb, blk)
		c.AllGatherOC(agBase, lines)
		c.GatherOC(7, agBase, lines) // idempotent on already-complete data
	})
	for i := 0; i < n; i++ {
		want := randPayload(lines, i)
		for cid := 0; cid < n; cid++ {
			if !bytes.Equal(sys.ReadPrivate(cid, agBase+i*bb, bb), want) {
				t.Fatalf("core %d allgather block %d mismatch", cid, i)
			}
		}
	}
}

// TestVirtualTimeDeterminism: repeated identical simulations must yield
// identical virtual-time results (the simulator's core guarantee), for
// several fan-outs.
func TestVirtualTimeDeterminism(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		const lines = 9
		runOnce := func() ([]float64, []byte) {
			sys := ocbcast.New(ocbcast.Options{K: k})
			times := make([]float64, sys.N())
			for i := 0; i < sys.N(); i++ {
				sys.WritePrivate(i, 0, randPayload(lines, i))
			}
			sys.Run(func(c *ocbcast.Core) {
				c.AllReduceOC(0, lines, ocbcast.SumInt64)
				c.ReduceOC(5, 0, lines, ocbcast.MaxInt64)
				times[c.ID()] = c.NowMicros()
			})
			return times, sys.ReadPrivate(5, 0, lines*ocbcast.CacheLineBytes)
		}
		t1, r1 := runOnce()
		t2, r2 := runOnce()
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("k=%d: core %d virtual time differs across runs: %v vs %v", k, i, t1[i], t2[i])
			}
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("k=%d: results differ across runs", k)
		}
	}
}

// TestOneSidedLayoutError: fan-outs OC-Bcast alone supports but that
// leave no MPB room for occoll's flags must fail loudly (and only when
// the OC collectives are actually used).
func TestOneSidedLayoutError(t *testing.T) {
	sys := ocbcast.New(ocbcast.Options{Cores: 8, K: 24})
	p := payload(4)
	sys.WritePrivate(0, 0, p)
	sys.Run(func(c *ocbcast.Core) {
		c.Broadcast(0, 0, 4) // OC-Bcast itself still works at k=24
		if c.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("ReduceOC with oversized layout did not panic")
				}
			}()
			c.ReduceOC(0, 0, 4, ocbcast.SumInt64)
		}
	})
	for i := 0; i < sys.N(); i++ {
		if !bytes.Equal(sys.ReadPrivate(i, 0, len(p)), p) {
			t.Fatalf("core %d broadcast payload corrupted", i)
		}
	}
}

func TestPublicModel(t *testing.T) {
	m := ocbcast.Model(nil)
	if got := m.CMpbR(1).Microseconds(); got != 0.136 {
		t.Fatalf("model CMpbR(1) = %v, want 0.136", got)
	}
}

// TestOptionsValidation: New rejects options no chip can run, naming
// what is wrong. The second case is the layout that uses every line
// below OC-Bcast's fence flags: its top done flag would share line 252
// with the MPMD activation descriptor, whose bytes then pass for a
// consumed chunk (silent corruption, not a panic).
func TestOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		opts ocbcast.Options
		want string
	}{
		{ocbcast.Options{K: -1}, "k=-1"},
		{ocbcast.Options{K: 1, ChunkLines: 251, DisableDoubleBuffer: true}, "MPMD descriptor line"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("New(%+v) panicked with %q, want a panic mentioning %q", tc.opts, msg, tc.want)
				}
			}()
			ocbcast.New(tc.opts)
		}()
	}
}

// TestComputeMisuseNamesTheValue: an unusable Compute argument is caught
// at the call site with an ocbcast: message naming it — not deep in the
// engine as "sim: negative Advance" after the float-to-clock conversion
// has overflowed.
func TestComputeMisuseNamesTheValue(t *testing.T) {
	for _, us := range []float64{math.NaN(), math.Inf(1), 1e13, -1} {
		sys := ocbcast.New(ocbcast.Options{Cores: 1})
		sys.Run(func(c *ocbcast.Core) {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := fmt.Sprintf("ocbcast: Compute(%v)", us); !strings.HasPrefix(msg, want) {
					t.Errorf("Compute(%v) panicked with %q, want a message starting %q", us, msg, want)
				}
			}()
			c.Compute(us)
		})
	}
}

// TestAccessorMisuseNamesTheValue: a core outside the chip or a negative
// length given to a System or Core accessor panics at the call, with an
// ocbcast: message naming the accessor and the value — not a runtime
// index or makeslice error from inside the simulator.
func TestAccessorMisuseNamesTheValue(t *testing.T) {
	cases := []struct {
		name, want string
		call       func(sys *ocbcast.System)
	}{
		{"ReadPrivate negative length", "ocbcast: ReadPrivate: negative length -1",
			func(sys *ocbcast.System) { sys.ReadPrivate(0, 0, -1) }},
		{"ReadPrivate core past the chip", "ocbcast: ReadPrivate: core 4 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.ReadPrivate(4, 0, 8) }},
		{"ReadPrivate negative core", "ocbcast: ReadPrivate: core -1 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.ReadPrivate(-1, 0, 8) }},
		{"WritePrivate negative core", "ocbcast: WritePrivate: core -1 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.WritePrivate(-1, 0, []byte{1}) }},
		{"WritePrivate core past the chip", "ocbcast: WritePrivate: core 4 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.WritePrivate(4, 0, []byte{1}) }},
		{"Counters core past the chip", "ocbcast: Counters: core 7 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.Counters(7) }},
		{"Counters negative core", "ocbcast: Counters: core -1 outside the 4-core chip",
			func(sys *ocbcast.System) { sys.Counters(-1) }},
		{"ReadOwnPrivate negative length", "ocbcast: ReadOwnPrivate: negative length -2",
			func(sys *ocbcast.System) {
				sys.Run(func(c *ocbcast.Core) {
					if c.ID() == 0 {
						c.ReadOwnPrivate(0, -2)
					}
				})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); msg != tc.want {
					t.Errorf("panicked with %q, want %q", msg, tc.want)
				}
			}()
			tc.call(ocbcast.New(ocbcast.Options{Cores: 4}))
		})
	}
}

// TestPeerOutsideChipPanicsAtCall: a two-sided or one-sided call naming
// a peer core outside the chip panics at the call with an ocbcast:
// message naming the method and the core — not an index-out-of-range
// from inside the simulator, nor a deadlock report for a receive nobody
// can match.
func TestPeerOutsideChipPanicsAtCall(t *testing.T) {
	cases := []struct {
		want string
		call func(c *ocbcast.Core)
	}{
		{"ocbcast: Send: core 4 outside the 4-core chip", func(c *ocbcast.Core) { c.Send(4, 0, 1) }},
		{"ocbcast: Send: core -1 outside the 4-core chip", func(c *ocbcast.Core) { c.Send(-1, 0, 1) }},
		{"ocbcast: Recv: core 4 outside the 4-core chip", func(c *ocbcast.Core) { c.Recv(4, 0, 1) }},
		{"ocbcast: PutToMPB: core 9 outside the 4-core chip", func(c *ocbcast.Core) { c.PutToMPB(9, 0, 0, 1) }},
		{"ocbcast: GetFromMPB: core -2 outside the 4-core chip", func(c *ocbcast.Core) { c.GetFromMPB(-2, 0, 0, 1) }},
		{"ocbcast: GetToOwnMPB: core 4 outside the 4-core chip", func(c *ocbcast.Core) { c.GetToOwnMPB(4, 0, 0, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); msg != tc.want {
					t.Errorf("panicked with %q, want %q", msg, tc.want)
				}
			}()
			ocbcast.New(ocbcast.Options{Cores: 4}).Run(func(c *ocbcast.Core) {
				if c.ID() == 0 {
					tc.call(c)
				}
			})
		})
	}
}

// TestPrivateMemoryLimit: a stray private-memory address is caught at the
// call — a panic naming the core, the address and the limit — instead of
// growing the page table to reach it (one byte at 16 GiB took 127 ms and
// 164 MiB; at 1 TiB, the host's memory), and the last valid byte still
// works.
func TestPrivateMemoryLimit(t *testing.T) {
	sys := ocbcast.New(ocbcast.Options{Cores: 2})
	sys.WritePrivate(1, ocbcast.PrivateMemoryBytes-1, []byte{7})
	if got := sys.ReadPrivate(1, ocbcast.PrivateMemoryBytes-1, 1); got[0] != 7 {
		t.Fatalf("last byte of private memory reads %d, want 7", got[0])
	}
	for _, addr := range []int{ocbcast.PrivateMemoryBytes, 1 << 34, 1 << 40} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"private[1]", fmt.Sprint(addr), fmt.Sprint(ocbcast.PrivateMemoryBytes)} {
					if !strings.Contains(msg, want) {
						t.Errorf("WritePrivate at %d panicked with %q, which does not mention %q", addr, msg, want)
					}
				}
			}()
			sys.WritePrivate(1, addr, []byte{1})
		}()
	}
}
