package scc

import (
	"strings"
	"testing"
)

// TestDefaultLayout: the paper's configuration lays out RCCE's staging
// buffer and flags, OC-Bcast's buffers and tagged flags, the private
// fence, the MPMD descriptor and one lane, and every protocol's lines
// come from the table.
func TestDefaultLayout(t *testing.T) {
	l, err := LayoutFor(LayoutSpec{K: 7, BufLines: 96, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Buffers != 2 || l.OCData != 0 || l.OCNotify != 192 || l.Descriptor != 0 || l.LaneErr != nil ||
		len(l.Lanes) != 1 || l.Lanes[0] != (Lane{Data: 0, Flags: 200}) || l.Fence != [3]int{253, 254, 255} {
		t.Fatalf("unexpected default layout:\n%s", l)
	}
	if l.Top() != MPBLinesPerCore {
		t.Errorf("Top = %d, want %d", l.Top(), MPBLinesPerCore)
	}
	again, _ := LayoutFor(LayoutSpec{K: 7, BufLines: 96, DoubleBuffer: true, Channels: 1})
	if again != l {
		t.Error("Channels 0 and 1 built two tables")
	}
	for _, want := range []string{"192..199  ocbcast  notify+done", "0x6f636263", "200..215  occoll   lane 0 flags", "shared: fence / barrier"} {
		if !strings.Contains(l.String(), want) {
			t.Errorf("String lacks %q:\n%s", want, l)
		}
	}
}

// TestLayoutRule: the overlap rule rejects what no protocol can share
// and names both regions.
func TestLayoutRule(t *testing.T) {
	for _, tc := range []struct {
		spec LayoutSpec
		want string // "" = valid
	}{
		{LayoutSpec{K: 0, BufLines: 96}, "k=0"},
		{LayoutSpec{K: 7, BufLines: 0}, "BufLines=0"},
		{LayoutSpec{K: 3, BufLines: 123, DoubleBuffer: true}, ""},
		{LayoutSpec{K: 4, BufLines: 123, DoubleBuffer: true}, ""}, // flags end at line 250
		{LayoutSpec{K: 5, BufLines: 123, DoubleBuffer: true}, "ocbcast notify+done 246..251 collides with rcce barrier 251..253"},
		{LayoutSpec{K: 1, BufLines: 300}, "ocbcast buffers 0..299 collides with"},
		{LayoutSpec{K: 7, BufLines: 96, DoubleBuffer: true, Channels: 3}, "occoll lane 1 buffers 216..407 collides with"},
		{LayoutSpec{K: 2, BufLines: 8, DoubleBuffer: true, Channels: 4}, ""},
	} {
		_, err := LayoutFor(tc.spec)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: error %v, want %q", tc.spec, err, tc.want)
		}
	}
	// One lane that does not fit leaves the layout usable for OC-Bcast.
	l, err := LayoutFor(LayoutSpec{K: 24, BufLines: 96, DoubleBuffer: true})
	if err != nil || l.Lanes != nil || l.LaneErr == nil || !strings.Contains(l.LaneErr.Error(), "occoll lane 0 flags 217..266") {
		t.Fatalf("k=24: err %v, lanes %v, lane error %v", err, l.Lanes, l.LaneErr)
	}
	if strings.Contains(l.String(), "lane 0") != strings.Contains(l.String(), "no lanes") {
		t.Errorf("a layout without lanes lists lane regions:\n%s", l)
	}
}

// TestLayoutShared: the lines a lane shares with other protocols'
// regions, as the public API's refusal names them.
func TestLayoutShared(t *testing.T) {
	l, _ := LayoutFor(LayoutSpec{K: 7, BufLines: 96, DoubleBuffer: true})
	for _, tc := range []struct {
		owners []Owner
		want   string
	}{
		{[]Owner{OwnerRCCE}, "0..191, 200..215"},
		{[]Owner{OwnerOCBcast}, "0..191"},
		{[]Owner{OwnerMPMD}, "0..0"},
	} {
		if got := l.Shared(0, tc.owners); got != tc.want {
			t.Errorf("Shared(0, %v) = %q, want %q", tc.owners, got, tc.want)
		}
	}
	two, _ := LayoutFor(LayoutSpec{K: 2, BufLines: 8, DoubleBuffer: true, Channels: 2})
	if got := two.Shared(1, []Owner{OwnerOCBcast}); got != "" {
		t.Errorf("lane 1 shares %q with OC-Bcast, want nothing", got)
	}
}

// TestFlagHolds: a flag wait needs the owner tag and a value at least
// the awaited one.
func TestFlagHolds(t *testing.T) {
	const tag = 0x6f636263 << 32
	for _, tc := range []struct {
		v, want uint64
		ok      bool
	}{
		{5, 5, true}, {6, 5, true}, {4, 5, false},
		{tag | 5, tag | 5, true}, {tag | 9, tag | 5, true},
		{5, tag | 5, false},         // untagged payload never passes for a tagged flag
		{tag | 5, 5, false},         // nor a tagged value for an untagged wait
		{1<<63 | 9, tag | 5, false}, // a large payload word with another tag
	} {
		if got := FlagHolds(tc.v, tc.want); got != tc.ok {
			t.Errorf("FlagHolds(%#x, %#x) = %v, want %v", tc.v, tc.want, got, tc.ok)
		}
	}
}
