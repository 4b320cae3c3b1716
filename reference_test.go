package ocbcast_test

import (
	"bytes"
	"testing"

	ocbcast "repro"
	"repro/internal/oracle"
)

// checkReference fails t when a core's region at addr differs from the
// host reference (oracle.Reference) anywhere it guarantees bytes.
func checkReference(t *testing.T, sys *ocbcast.System, want [][]oracle.Span, addr int, what string) {
	t.Helper()
	for id, spans := range want {
		for _, s := range spans {
			if got := sys.ReadPrivate(id, addr+s.Off, len(s.Want)); !bytes.Equal(got, s.Want) {
				t.Fatalf("%s: core %d holds wrong bytes at region offset %d", what, id, s.Off)
			}
		}
	}
}
