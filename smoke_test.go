package ocbcast_test

import (
	"os/exec"
	"strings"
	"testing"
)

// Smoke tests: every runnable artifact in the repository must build and
// run end to end, so example drift is caught by CI. The tests run from
// the module root (this package's directory).

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestSmokeExamples(t *testing.T) {
	for _, example := range []string{
		"quickstart", "collectives", "allreduce", "autotune",
		"contention", "ksweep", "mpmd-os", "spmd-stencil", "replay",
		"serving",
	} {
		example := example
		t.Run(example, func(t *testing.T) {
			t.Parallel()
			out := runGo(t, "run", "./examples/"+example)
			if strings.TrimSpace(out) == "" {
				t.Fatalf("example %s produced no output", example)
			}
		})
	}
}

func TestSmokeOcbench(t *testing.T) {
	list := runGo(t, "run", "./cmd/ocbench", "list")
	for _, name := range []string{"fig3", "fig-allreduce", "headline"} {
		if !strings.Contains(list, name) {
			t.Fatalf("ocbench list missing experiment %q:\n%s", name, list)
		}
	}
	// A fast simulated experiment and a model-only one, end to end.
	out := runGo(t, "run", "./cmd/ocbench", "-effort", "1", "fig3", "table2")
	if !strings.Contains(out, "## ") {
		t.Fatalf("ocbench produced no tables:\n%s", out)
	}
	// -effort names a grid tier, 1 or 2; any other value is a usage
	// error (status 2), not a silent clamp.
	bad, err := exec.Command("go", "run", "./cmd/ocbench", "-effort", "3", "list").CombinedOutput()
	if err == nil || !strings.Contains(string(bad), "usage: ocbench") || !strings.Contains(string(bad), "exit status 2") {
		t.Fatalf("ocbench -effort 3 was not refused with status 2 (%v):\n%s", err, bad)
	}
}

func TestSmokeOcbenchTrace(t *testing.T) {
	out := runGo(t, "run", "./cmd/ocbench", "trace",
		"-lines", "32", "-out", t.TempDir()+"/trace.json")
	for _, want := range []string{"time attribution", "top spans", "ui.perfetto.dev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ocbench trace output missing %q:\n%s", want, out)
		}
	}
}
