package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/workload"
)

// sendCell is a one-line broadcast from core 0 to core 1 over an RCCE
// send; with corrupt, core 1 flips one delivered byte afterwards.
func sendCell(name string, corrupt bool) Cell {
	return Cell{
		Name: name, Class: "send", N: 2,
		Stage: func(id int) []byte {
			b := make([]byte, 2*scc.CacheLine)
			for i := range b {
				b[i] = byte(i*7 + id*13 + 1)
			}
			return b
		},
		Body: func(c *rma.Core) {
			p := rcce.NewPort(c)
			if c.ID() == 0 {
				p.Send(1, 0, 1)
				return
			}
			p.Recv(0, 0, 1)
			if corrupt {
				b, mem := []byte{0}, c.Chip().Private(1)
				mem.Read(b, 5, 1)
				mem.Write(5, []byte{^b[0]})
			}
		},
		Want: func(staged [][]byte) [][]Span {
			return Reference(workload.OpOf(workload.OpBcast), 2, 0, 1, 0, staged, nil)
		},
	}
}

// TestCorruptByteFailsVerdict: a file recorded from the corrupting run
// loads and matches that run exactly, and its verdict still fails.
func TestCorruptByteFailsVerdict(t *testing.T) {
	good, _, err := Run(sendCell("send", false))
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	bad, _, err := Run(sendCell("send", true))
	if err == nil || !strings.Contains(err.Error(), "core 1's bytes [0, 32) differ") {
		t.Fatalf("corrupted run's verdict = %v, want core 1's line to differ", err)
	}
	file := filepath.Join(t.TempDir(), "bad.json")
	b, _ := json.Marshal([]Row{bad})
	if err := os.WriteFile(file, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := Load(file, []Cell{sendCell("send", true)})
	if again, _, _ := Run(sendCell("send", true)); err != nil || rows[0] != again {
		t.Fatalf("the corrupted run's own row does not load and repeat (%v): %+v then %+v", err, rows, again)
	}
	if bad.Bytes == good.Bytes || bad.Clocks != good.Clocks {
		t.Fatalf("the flip should move only the byte hash: %+v against %+v", bad, good)
	}
}

// TestLoadRefuses holds Load (and so Check) to the schema rule: a file
// recorded from the cells passes, and a truncated one, one with an
// unknown field, a missing row or a cell without a verdict outside
// Unchecked do not.
func TestLoadRefuses(t *testing.T) {
	cells := []Cell{sendCell("send/a", false), sendCell("send/b", false)}
	var rows []Row
	for _, c := range cells {
		r, _, _ := Run(c)
		rows = append(rows, r)
	}
	good, _ := json.Marshal(rows)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return file
	}
	file := write("good.json", good)
	if _, err := Load(file, cells); err != nil {
		t.Fatalf("recorded file: %v", err)
	}
	Check(t, file, cells)

	oneRow, _ := json.Marshal(rows[:1])
	unverified := append([]Cell{}, cells...)
	unverified[1].Want = nil
	for name, tc := range map[string]struct {
		file  string
		cells []Cell
	}{
		"truncated":     {write("cut.json", good[:len(good)/2]), cells},
		"unknown field": {write("field.json", bytes.Replace(good, []byte(`"switches"`), []byte(`"extra":1,"switches"`), 1)), cells},
		"missing row":   {write("short.json", oneRow), cells},
		"no verdict":    {file, unverified},
	} {
		if _, err := Load(tc.file, tc.cells); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// TestUncheckedIsPinned: a cell drops its verdict only by a named,
// reasoned entry here.
func TestUncheckedIsPinned(t *testing.T) {
	want := []string{"barrier/", "seq/reduce-scatter-naive/"}
	if len(Unchecked) != len(want) {
		t.Fatalf("Unchecked has %d entries, want %v", len(Unchecked), want)
	}
	for _, prefix := range want {
		if Unchecked[prefix] == "" {
			t.Errorf("Unchecked[%q] has no reason", prefix)
		}
	}
}

// TestReferenceRules pins where each op's guaranteed bytes land, with
// core id's region filled with id+1 and a bytewise-add fold.
func TestReferenceRules(t *testing.T) {
	const n, size = 3, scc.CacheLine
	staged := make([][]byte, n)
	for id := range staged {
		staged[id] = bytes.Repeat([]byte{byte(id + 1)}, n*size)
	}
	add := func(dst, src []byte) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// Each core's spans as (offset, length, first byte) triples; root 1.
	for op, want := range map[string][n][]int{
		workload.OpBcast:     {{0, size, 2}, {0, size, 2}, {0, size, 2}},
		workload.OpReduce:    {nil, {0, size, 6}, nil},
		workload.OpAllReduce: {{0, size, 6}, {0, size, 6}, {0, size, 6}},
		workload.OpScatter:   {{0, size, 2}, {size, size, 2}, {2 * size, size, 2}},
		workload.OpGather:    {{0, size, 1}, {0, n * size, 1}, {2 * size, size, 3}},
		workload.OpAllGather: {{0, n * size, 1}, {0, n * size, 1}, {0, n * size, 1}},
	} {
		for id, spans := range Reference(workload.OpOf(op), n, 1, 1, 0, staged, add) {
			var got []int
			for _, s := range spans {
				got = append(got, s.Off, len(s.Want), int(s.Want[0]))
			}
			if fmt.Sprint(got) != fmt.Sprint(want[id]) {
				t.Errorf("%s: core %d spans %v, want %v", op, id, got, want[id])
			}
		}
	}
}
