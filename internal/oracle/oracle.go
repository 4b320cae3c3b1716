// Package oracle is the one harness behind the committed digest files:
// a Cell runs on a fresh chip, its verdict compares the delivered bytes
// with a host reference, and its Row hashes clocks and bytes. Only tests
// import it.
package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Span is bytes a call guarantees at a byte offset into a core's region.
type Span struct {
	Off  int
	Want []byte
}

// Reference is the host reference of every collective: what a call of op
// on n cores guarantees in each core's region at byte offset addr, given
// the bytes staged before it. Inputs follow the op table's input rule;
// reductions fold them in core order. What a core's list leaves out is
// not guaranteed (two-sided forms relay through non-root regions).
func Reference(op *workload.Op, n, root, lines, addr int, staged [][]byte, fold func(dst, src []byte)) [][]Span {
	size := lines * scc.CacheLine
	in := make([][]byte, n)
	for id := range in {
		off, count := op.InputAt(n, id, root, lines)
		in[id] = staged[id][addr+off*scc.CacheLine : addr+(off+count)*scc.CacheLine]
	}
	all := bytes.Join(in, nil) // the root's message or blocks, or every core's own block
	if op.Name == workload.OpReduce || op.Name == workload.OpAllReduce {
		all = append([]byte(nil), in[0]...)
		for _, b := range in[1:] {
			fold(all, b)
		}
	}
	out := make([][]Span, n)
	for id := range out {
		switch {
		case op.Name == workload.OpScatter || op.Name == workload.OpGather && id != root:
			out[id] = []Span{{addr + id*size, all[id*size : (id+1)*size]}} // a gather's own block stays
		case op.Name != workload.OpReduce || id == root:
			out[id] = []Span{{addr, all}}
		}
	}
	return out
}

// Join is the reference of calls on disjoint regions: each core's spans
// from every part.
func Join(parts ...[][]Span) [][]Span {
	out := make([][]Span, len(parts[0]))
	for _, p := range parts {
		for id, spans := range p {
			out[id] = append(out[id], spans...)
		}
	}
	return out
}

// Cell is one run of a digest file: Body runs on N cores of Chip (zero:
// the SCC) after Stage(id) is written at core id's address 0. -short
// keeps a cell of each Class. Want is what the staged bytes must hold
// after; only cells Unchecked names lack it. Traced hashes obs events.
type Cell struct {
	Name, Class string
	Chip        scc.Topology
	N           int
	Stage       func(id int) []byte
	Body        func(c *rma.Core)
	Want        func(staged [][]byte) [][]Span
	Traced      bool
}

// Row is one line of a digest file: FNV-1a-64 hashes of the per-core
// finish clocks (ps) and staged spans after the run, summed counters,
// slow-path switches and, if traced, the event stream's hash.
type Row struct {
	Cell     string             `json:"cell"`
	Clocks   string             `json:"clocks_fnv64"`
	Bytes    string             `json:"bytes_fnv64"`
	Counters trace.CoreCounters `json:"counters"`
	Switches int64              `json:"switches"`
	Events   string             `json:"events_fnv64,omitempty"`
}

// Unchecked names, by prefix, the only cells without a verdict, each
// with its reason.
var Unchecked = map[string]string{
	"barrier/":                  "a barrier moves no bytes",
	"seq/reduce-scatter-naive/": "Reduce leaves non-root regions unknown, and they feed the later Scatter and broadcast",
}

// Run simulates c on a fresh chip and returns its row, its queue→list
// moves (mem.PendingStats, not in the row) and its verdict.
func Run(c Cell) (Row, int64, error) {
	cfg := scc.DefaultConfig()
	cfg.Topo = c.Chip
	chip, rec := rma.NewChipN(cfg, c.N), obs.NewRecorder()
	if c.Traced {
		chip.SetObserver(rec)
	}
	staged, got, finish := make([][]byte, c.N), make([][]byte, c.N), make([]sim.Time, c.N)
	for id := range staged {
		staged[id] = c.Stage(id)
		chip.Private(id).Write(0, staged[id])
	}
	chip.Run(func(core *rma.Core) {
		c.Body(core)
		finish[core.ID()] = core.Now()
	})
	clocks, data, events := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for id := range got {
		fmt.Fprintf(clocks, "%d\n", int64(finish[id]))
		got[id] = make([]byte, len(staged[id]))
		chip.Private(id).Read(got[id], 0, len(got[id]))
		data.Write(got[id])
	}
	row := Row{c.Name, sum(clocks), sum(data), trace.Sum(chip.Counter), chip.Engine.Switches(), ""}
	if c.Traced {
		for _, e := range obs.Capture(rec, c.N, nil).Events {
			fmt.Fprintf(events, "%+v\n", e)
		}
		row.Events = sum(events)
	}
	return row, chip.PendingStats().Moves, verdict(c, staged, got)
}

func sum(h interface{ Sum64() uint64 }) string { return fmt.Sprintf("%016x", h.Sum64()) }

// verdict reports the first span a core holds that c's Want rules out.
func verdict(c Cell, staged, got [][]byte) error {
	if c.Want == nil {
		return nil
	}
	for id, spans := range c.Want(staged) {
		for _, s := range spans {
			if !bytes.HasPrefix(got[id][s.Off:], s.Want) {
				return fmt.Errorf("%s: core %d's bytes [%d, %d) differ from the reference", c.Name, id, s.Off, s.Off+len(s.Want))
			}
		}
	}
	return nil
}

// Load reads a digest file and applies its schema rule: one filled row
// per cell, in grid order (a lone core, with nobody to wait for, has no
// switch), and a verdict iff Unchecked does not name it.
func Load(file string, cells []Cell) ([]Row, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rows []Row
	if err := dec.Decode(&rows); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if len(rows) != len(cells) {
		return nil, fmt.Errorf("%s: %d rows, want %d", file, len(rows), len(cells))
	}
	for i, r := range rows {
		c, exempt := cells[i], false
		for prefix := range Unchecked {
			exempt = exempt || strings.HasPrefix(c.Name, prefix)
		}
		if r.Cell != c.Name || len(r.Clocks) != 16 || len(r.Bytes) != 16 ||
			(r.Switches <= 0 && c.N > 1) || (r.Events != "") != c.Traced || (c.Want == nil) != exempt {
			return nil, fmt.Errorf("%s: row %d %+v does not fill cell %s, or the cell's verdict disagrees with Unchecked", file, i, r, c.Name)
		}
	}
	return rows, nil
}

// Check runs each cell as a parallel subtest (under -short, only each
// class's first and every 13th: no class size or grid axis is a multiple
// of 13, so the picks sweep them) and fails it on its verdict or on a row
// that differs from file's, printing the row this build produces: a bug
// unless proven otherwise. Queue→list moves are logged to be read: legal
// where families alternate behind a barrier, but also what two owners of
// one line look like.
func Check(t *testing.T, file string, cells []Cell) {
	rows, err := Load(file, cells)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if testing.Short() && seen[c.Class] && i%13 != 0 {
			continue
		}
		seen[c.Class] = true
		c, want := c, rows[i]
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			got, moves, err := Run(c)
			if err != nil {
				t.Error(err)
			}
			if got != want {
				out, _ := json.Marshal(got)
				t.Errorf("committed %+v, this build produces\n%s", want, out)
			}
			t.Logf("queue→list moves: %d", moves)
		})
	}
}
