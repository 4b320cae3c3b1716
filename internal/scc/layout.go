package scc

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// This file is the one owner of a core's MPB line layout: which lines
// RCCE, OC-Bcast, the MPMD descriptor and the one-sided lanes use, what
// for and for how long. Every protocol reads its lines from here, and
// LayoutFor validates a layout once, by one rule over all its regions.

// RCCE's lines, the same in every layout: a staging buffer of at most
// RCCEStaging lines (the paper's Mrcce), then its barrier tree and
// send/recv handshake flags.
const (
	RCCEStaging        = 251
	RCCEBarrierChildA  = RCCEStaging     // set by the left child on arrival
	RCCEBarrierChildB  = RCCEStaging + 1 // set by the right child on arrival
	RCCEBarrierRelease = RCCEStaging + 2 // set by the parent on release
	RCCEReady          = RCCEStaging + 3 // written by my receiver: chunk consumed
	RCCESent           = RCCEStaging + 4 // written by my sender: chunk staged
)

// FlagHolds is the comparison of every flag wait: v satisfies a wait for
// want when its high 32 bits — the owner tag — equal want's and v ≥ want.
func FlagHolds(v, want uint64) bool { return v>>32 == want>>32 && v >= want }

// LayoutSpec fixes a layout: OC-Bcast's fan-out, chunk size and buffer
// count, and the number of one-sided lanes (0 means 1).
type LayoutSpec struct {
	K, BufLines  int
	DoubleBuffer bool
	Channels     int
}

// Owner is a region's protocol: RCCE is the two-sided family, the rest
// the one-sided family.
type Owner string

// The owners.
const (
	OwnerRCCE    Owner = "rcce"
	OwnerOCBcast Owner = "ocbcast"
	OwnerMPMD    Owner = "mpmd"
	OwnerOCColl  Owner = "occoll"
)

// Lifetime is how long a region's lines keep their meaning: persistent
// flags carry monotonic values across operations, per-op flags are
// zeroed when an operation begins, transient lines are owned from an
// operation's begin to its drain.
type Lifetime string

// The lifetimes.
const (
	Persistent Lifetime = "persistent"
	PerOp      Lifetime = "per-op"
	Transient  Lifetime = "transient"
)

// Region is lines Lo..Hi of every core's MPB. Role is data, flag, fence
// or descriptor; Lane is the one-sided lane (-1 outside occoll); a
// nonzero Tag rides in the high 32 bits of every value of the region's
// flags.
type Region struct {
	Name   string
	Owner  Owner
	Role   string
	Lane   int
	Lo, Hi int
	Life   Lifetime
	Tag    uint64
}

func (r Region) String() string { return fmt.Sprintf("%s %s %d..%d", r.Owner, r.Name, r.Lo, r.Hi) }

func (r Region) overlaps(o Region) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Share is an overlap of two named regions the rule allows only because
// the table records it, with why.
type Share struct{ A, B, Why string }

// Lane is a one-sided lane's first buffer line and first flag line.
type Lane struct{ Data, Flags int }

// Layout is one validated MPB layout, shared by every core of a chip.
type Layout struct {
	Spec    LayoutSpec
	Regions []Region
	Shares  []Share
	Buffers int // chunk buffers of OC-Bcast and of each lane
	// OC-Bcast: buffers from OCData, notify flag OCNotify, child i's done
	// flag OCNotify+1+i, flag values tagged OCTag; Fence is its private
	// root-change barrier (child A, child B, release).
	OCData, OCNotify int
	OCTag            uint64
	Fence            [3]int
	Descriptor       int // the MPMD activation descriptor's line
	// Lanes is nil when one lane does not fit, which LaneErr explains:
	// OC-Bcast alone admits larger fan-outs than the one-sided family.
	Lanes   []Lane
	LaneErr error
}

var layouts sync.Map // LayoutSpec → layoutResult

type layoutResult struct {
	l   *Layout
	err error
}

// LayoutFor returns spec's validated layout, built once per spec. It
// fails when OC-Bcast's part does not fit, or when more than one lane is
// asked for and the lanes do not; one lane that does not fit leaves
// LaneErr set.
func LayoutFor(spec LayoutSpec) (*Layout, error) {
	spec.Channels = max(spec.Channels, 1)
	r, ok := layouts.Load(spec)
	if !ok {
		l, err := buildLayout(spec)
		r, _ = layouts.LoadOrStore(spec, layoutResult{l, err})
	}
	return r.(layoutResult).l, r.(layoutResult).err
}

func buildLayout(s LayoutSpec) (*Layout, error) {
	if s.K < 1 || s.BufLines < 1 {
		return nil, fmt.Errorf("scc: MPB layout: k=%d and BufLines=%d must be >= 1", s.K, s.BufLines)
	}
	nb := 1
	if s.DoubleBuffer {
		nb = 2
	}
	data := nb * s.BufLines
	l := &Layout{Spec: s, Buffers: nb, OCNotify: data, OCTag: 0x6f636263 << 32, // "ocbc"
		Fence: [3]int{RCCEBarrierRelease, RCCEReady, RCCESent}}
	l.Regions = []Region{
		{"staging", OwnerRCCE, "data", -1, 0, RCCEStaging - 1, Transient, 0},
		{"barrier", OwnerRCCE, "flag", -1, RCCEBarrierChildA, RCCEBarrierRelease, Persistent, 0},
		{"handshake", OwnerRCCE, "flag", -1, RCCEReady, RCCESent, Persistent, 0},
		{"buffers", OwnerOCBcast, "data", -1, l.OCData, data - 1, Transient, 0},
		{"notify+done", OwnerOCBcast, "flag", -1, data, data + s.K, Persistent, l.OCTag},
		{"fence", OwnerOCBcast, "fence", -1, l.Fence[0], l.Fence[2], Persistent, 0},
		{"descriptor", OwnerMPMD, "descriptor", -1, l.Descriptor, l.Descriptor, Transient, 0},
	}
	l.Shares = []Share{
		{"fence", "barrier", "only a broadcaster without an RCCE port fences privately"},
		{"fence", "handshake", "as above"},
		{"descriptor", "buffers", "read before the first chunk lands"},
	}
	if err := l.validate(); err != nil {
		return nil, err
	}
	base, shares := l.Regions, l.Shares
	lanes := make([]Lane, s.Channels)
	for i := range lanes {
		// Lane 0 shares OC-Bcast's buffers, its flags above OC-Bcast's;
		// each later lane stacks above the one before.
		lanes[i] = Lane{l.OCData, data + s.K + 1}
		if i > 0 {
			lanes[i].Data = lanes[i-1].Flags + 2*s.K + 2
			lanes[i].Flags = lanes[i].Data + data
		}
		name := fmt.Sprintf("lane %d ", i)
		l.Regions = append(l.Regions,
			Region{name + "buffers", OwnerOCColl, "data", i, lanes[i].Data, lanes[i].Data + data - 1, Transient, 0},
			Region{name + "flags", OwnerOCColl, "flag", i, lanes[i].Flags, lanes[i].Flags + 2*s.K + 1, PerOp, 0})
	}
	l.Shares = append(l.Shares, Share{"lane 0 buffers", "buffers", "one one-sided operation at a time uses them"},
		Share{"lane 0 buffers", "descriptor", "as above"})
	if err := l.validate(); err != nil {
		if s.Channels > 1 {
			return nil, err
		}
		l.Regions, l.Shares, l.LaneErr = base, shares, err
		return l, nil
	}
	l.Lanes = lanes
	return l, nil
}

// validate checks every region against the MPB and the overlap rule:
// regions of one family share lines only where a Share names them; of
// two families, regions that are not persistent may share lines, and a
// persistent region may sit only inside the other's transient region, as
// a tagged flag region — or where a Share names the pair.
func (l *Layout) validate() error {
	for i, a := range l.Regions {
		for j := i - 1; j >= 0; j-- { // latest first: RCCE's flags before its staging
			b := l.Regions[j]
			if a.overlaps(b) && !l.shared(a, b) && !legalOverlap(a, b) && !legalOverlap(b, a) {
				return fmt.Errorf("scc: MPB layout %+v: %s collides with %s", l.Spec, a, b)
			}
		}
		if a.Lo < 0 || a.Hi >= MPBLinesPerCore {
			return fmt.Errorf("scc: MPB layout %+v: %s lies outside the %d-line MPB", l.Spec, a, MPBLinesPerCore)
		}
	}
	return nil
}

// legalOverlap reports whether a may overlap b, of the other family,
// without a Share.
func legalOverlap(a, b Region) bool {
	return (a.Owner == OwnerRCCE) != (b.Owner == OwnerRCCE) &&
		(a.Life != Persistent && b.Life != Persistent ||
			a.Role == "flag" && a.Tag != 0 && b.Life == Transient && b.Lo <= a.Lo && a.Hi <= b.Hi)
}

func (l *Layout) shared(a, b Region) bool {
	for _, s := range l.Shares {
		if s.A == a.Name && s.B == b.Name || s.A == b.Name && s.B == a.Name {
			return true
		}
	}
	return false
}

// Top is the number of MPB lines the layout spans.
func (l *Layout) Top() int {
	top := 0
	for _, r := range l.Regions {
		top = max(top, r.Hi+1)
	}
	return top
}

// Shared lists the lines lane's regions share with the regions of
// owners, like "0..191, 200..215", or "" when they share none.
func (l *Layout) Shared(lane int, owners []Owner) string {
	var parts []string
	for _, a := range l.Regions {
		for _, b := range l.Regions {
			if a.Owner == OwnerOCColl && a.Lane == lane && slices.Contains(owners, b.Owner) && a.overlaps(b) {
				parts = append(parts, fmt.Sprintf("%d..%d", max(a.Lo, b.Lo), min(a.Hi, b.Hi)))
			}
		}
	}
	return strings.Join(parts, ", ")
}

// String renders the table: a region a line, then the recorded shares.
func (l *Layout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPB layout %+v, %d lines per core\n", l.Spec, MPBLinesPerCore)
	fmt.Fprintf(&b, "%-9s %-8s %-15s %-10s %-10s %s\n", "lines", "owner", "region", "role", "lifetime", "tag")
	for _, r := range l.Regions {
		fmt.Fprintf(&b, "%-9s %-8s %-15s %-10s %-10s %#x\n", fmt.Sprintf("%d..%d", r.Lo, r.Hi), r.Owner, r.Name, r.Role, r.Life, r.Tag>>32)
	}
	for _, s := range l.Shares {
		fmt.Fprintf(&b, "shared: %s / %s: %s\n", s.A, s.B, s.Why)
	}
	if l.LaneErr != nil {
		fmt.Fprintf(&b, "no lanes: %v\n", l.LaneErr)
	}
	return b.String()
}
