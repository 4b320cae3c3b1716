package ocbcast_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// locBaseline is the line ledger: the most non-test Go lines each
// package outside bench/ may hold. Lowering an entry is free; raising
// one needs a CHANGES.md line that says why.
const locBaseline = ".github/loc-baseline.json"

// TestLineLedger fails when a package holds more non-test Go lines (as
// wc -l counts them) than the ledger allows, or is missing from it.
func TestLineLedger(t *testing.T) {
	data, err := os.ReadFile(locBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct{ Lines map[string]int }
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("%s: %v", locBaseline, err)
	}
	have := map[string]int{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		have[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(have))
	total := 0
	for pkg, n := range have {
		pkgs = append(pkgs, pkg)
		total += n
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		base, ok := ledger.Lines[pkg]
		switch {
		case !ok:
			t.Errorf("package %s (%d lines) is not in %s", pkg, have[pkg], locBaseline)
		case have[pkg] > base:
			t.Errorf("package %s holds %d non-test lines, %d over its %d in %s", pkg, have[pkg], have[pkg]-base, base, locBaseline)
		case have[pkg] < base:
			t.Logf("package %s holds %d non-test lines; its baseline %d can be lowered", pkg, have[pkg], base)
		}
	}
	t.Logf("%d non-test lines outside bench/", total)
}
