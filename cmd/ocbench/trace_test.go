package main

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestTraceBodyCoversOpTable: every op of the op table has a traced
// body, as has ibcast-overlap, and any other name is refused with a
// message that lists them all.
func TestTraceBodyCoversOpTable(t *testing.T) {
	for _, op := range append(workload.Ops(), traceOverlap) {
		if body, err := traceBody(op, 1); err != nil || body == nil {
			t.Errorf("op %q: no traced body (%v)", op, err)
		}
	}
	_, err := traceBody("broadcast", 1)
	if err == nil || !strings.Contains(err.Error(), strings.Join(workload.Ops(), ", ")) || !strings.Contains(err.Error(), traceOverlap) {
		t.Errorf("an unknown op is refused with %v, want a message listing every op", err)
	}
}
