package ocbcast_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	ocbcast "repro"
)

// These tests probe the MPB layout where the collective families meet:
// each would fail if two families' lines overlapped in a way the layout
// table does not allow.

// TestMPMDAnnounceBetweenBarriers: an MPMD activation between two
// barriers must leave the second barrier intact. When the activation
// descriptor sat on RCCE's barrier child-B line, the stale descriptor
// satisfied the next barrier's arrival wait, and cores left the second
// barrier while core 2 was still computing.
func TestMPMDAnnounceBetweenBarriers(t *testing.T) {
	const n = 4
	sys := ocbcast.New(ocbcast.Options{Cores: n})
	var leave [n]float64
	sys.Run(func(c *ocbcast.Core) {
		c.Barrier()
		if c.ID() == 1 {
			c.Announce(0, 4)
		} else {
			c.HandleAnnounce()
		}
		if c.ID() == 2 {
			c.Compute(1000)
		}
		c.Barrier()
		leave[c.ID()] = c.NowMicros()
	})
	for i, us := range leave {
		if us < 1000 {
			t.Errorf("core %d left the second barrier at %.3f µs, before core 2's 1000 µs of compute ended", i, us)
		}
	}
}

// TestSendBetweenBroadcasts: a two-sided message staged over OC-Bcast's
// flag lines between two broadcasts (with barriers around it) must not
// pass for a notify flag of the second broadcast.
func TestSendBetweenBroadcasts(t *testing.T) {
	const lines, sendLines = 64, 193
	first, second := pattern(lines, 1), pattern(lines, 5)
	for _, n := range []int{4, 48} {
		sys := ocbcast.New(ocbcast.Options{Cores: n})
		sys.WritePrivate(0, 0, first)
		sys.WritePrivate(0, 2<<20, second)
		sys.WritePrivate(1, 1<<20, pattern(sendLines, 9))
		sys.Run(func(c *ocbcast.Core) {
			c.Broadcast(0, 0, lines)
			c.Barrier()
			switch c.ID() {
			case 1:
				c.Send(2, 1<<20, sendLines)
			case 2:
				c.Recv(1, 1<<20, sendLines)
			}
			c.Barrier()
			c.Broadcast(0, 2<<20, lines)
		})
		for i := 0; i < n; i++ {
			if !bytes.Equal(sys.ReadPrivate(i, 0, len(first)), first) || !bytes.Equal(sys.ReadPrivate(i, 2<<20, len(second)), second) {
				t.Errorf("n=%d: core %d received corrupt broadcast bytes", n, i)
			}
		}
		if !bytes.Equal(sys.ReadPrivate(2, 1<<20, sendLines*ocbcast.CacheLineBytes), pattern(sendLines, 9)) {
			t.Errorf("n=%d: core 2 received corrupt message bytes", n)
		}
	}
}

// pattern is `lines` cache lines of nonzero bytes, distinct per seed.
func pattern(lines, seed int) []byte {
	b := make([]byte, lines*ocbcast.CacheLineBytes)
	for i := range b {
		b[i] = byte(seed*31+i*7) | 1
	}
	return b
}

// TestIncompleteRequestRefusesOtherFamilies: a core that holds an
// incomplete non-blocking request and starts a call whose lines overlap
// the request's lane panics at the call, naming the request and the
// shared lines — instead of restaging over lines the request's peers
// still read (every result word came out wrong).
func TestIncompleteRequestRefusesOtherFamilies(t *testing.T) {
	for _, tc := range []struct {
		name     string
		channels int
		call     func(c *ocbcast.Core)
		want     string
	}{
		{"send/recv", 0, func(c *ocbcast.Core) {
			switch c.ID() {
			case 0:
				c.Send(1, 1<<20, 200)
			case 1:
				c.Recv(0, 1<<20, 200)
			}
		}, "Send while its IAllReduce request on lane 0 is incomplete: both use MPB lines 0..191, 200..215"},
		{"broadcast", 0, func(c *ocbcast.Core) { c.Broadcast(0, 1<<20, 64) }, "bcast (ocbcast) while its IAllReduce request on lane 0 is incomplete: both use MPB lines 0..191"},
		{"broadcast, two lanes", 2, func(c *ocbcast.Core) { c.Broadcast(0, 1<<20, 64) }, "bcast (ocbcast) while its IAllReduce request on lane 0 is incomplete: both use MPB lines 0..95"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ocbcast.Options{Cores: 4, Channels: tc.channels}
			if tc.channels > 1 {
				opts.ChunkLines = 48
			}
			sys := ocbcast.New(opts)
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			sys.Run(func(c *ocbcast.Core) {
				r := c.IAllReduceOC(0, 64, ocbcast.SumInt64)
				tc.call(c)
				r.Wait()
			})
		})
	}
}

// TestBarrierWithIncompleteRequest: Barrier's lines are RCCE's barrier
// flags, which no lane shares, so it stays legal while a request is
// incomplete, and the request completes exactly.
func TestBarrierWithIncompleteRequest(t *testing.T) {
	const n, lines = 4, 64
	sys := ocbcast.New(ocbcast.Options{Cores: n})
	for i := 0; i < n; i++ {
		sys.WritePrivate(i, 0, words(lines, uint64(i+1)))
	}
	sys.Run(func(c *ocbcast.Core) {
		r := c.IAllReduceOC(0, lines, ocbcast.SumInt64)
		c.Barrier()
		r.Wait()
	})
	for i := 0; i < n; i++ {
		if got := sys.ReadPrivate(i, 0, lines*ocbcast.CacheLineBytes); !bytes.Equal(got, words(lines, n*(n+1)/2)) {
			t.Errorf("core %d: wrong sum", i)
		}
	}
}

// words is `lines` cache lines of little-endian int64 words all equal v.
func words(lines int, v uint64) []byte {
	b := make([]byte, lines*ocbcast.CacheLineBytes)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], v)
	}
	return b
}
