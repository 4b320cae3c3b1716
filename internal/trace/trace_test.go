package trace

import (
	"strings"
	"testing"
)

func TestAddAndSum(t *testing.T) {
	a := CoreCounters{MPBReadLines: 1, MemWriteLines: 2, FlagSets: 3, PutOps: 1}
	b := CoreCounters{MPBReadLines: 10, MemReadLines: 5, FlagWaits: 7, GetOps: 2, CacheHitLines: 4}
	a.Add(b)
	if a.MPBReadLines != 11 || a.MemWriteLines != 2 || a.MemReadLines != 5 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.FlagSets != 3 || a.FlagWaits != 7 || a.PutOps != 1 || a.GetOps != 2 || a.CacheHitLines != 4 {
		t.Fatalf("Add wrong: %+v", a)
	}

	total := Sum([]CoreCounters{{MemReadLines: 1}, {MemReadLines: 2, MemWriteLines: 3}})
	if total.MemReadLines != 3 || total.MemWriteLines != 3 {
		t.Fatalf("Sum wrong: %+v", total)
	}
}

func TestString(t *testing.T) {
	s := CoreCounters{MPBReadLines: 5, FlagSets: 2}.String()
	for _, want := range []string{"mpbR=5", "flagSet=2", "get=0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
