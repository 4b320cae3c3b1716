package harness

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scc"
)

// renderAll renders every registered experiment at effort 1, in registry
// order, exactly as `ocbench -effort 1 all` prints them.
func renderAll(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range Registry() {
		tables, err := e.Run(scc.DefaultConfig(), 1)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tbl := range tables {
			tbl.Fprint(&sb)
		}
	}
	return sb.String()
}

// TestTablesEffort1 pins every registered experiment's effort-1 output
// byte for byte to testdata/tables_effort1.txt, rendered once on one
// worker and once on four (with -short, as under the race detector, only
// on four): the tables are a pure function of the configuration, whatever
// the sharding of their cells. A differing line means simulated timing, a
// table's layout or an experiment's cells changed, which is a bug unless
// proven otherwise.
func TestTablesEffort1(t *testing.T) {
	raw, err := os.ReadFile("testdata/tables_effort1.txt")
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 4}
	if testing.Short() {
		workers = workers[1:]
	}
	for _, procs := range workers {
		prev := runtime.GOMAXPROCS(procs)
		got := renderAll(t)
		runtime.GOMAXPROCS(prev)
		if got == string(raw) {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Errorf("GOMAXPROCS %d: first difference at line %d: %q", procs, i+1, g[i])
				break
			}
		}
		t.Errorf("GOMAXPROCS %d: %d lines rendered, %d pinned", procs, len(g), len(w))
	}
}
