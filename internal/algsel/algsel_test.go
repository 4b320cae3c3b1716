package algsel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
)

func TestRegistryShape(t *testing.T) {
	wantOps := []Op{OpAllGather, OpAllReduce, OpBcast, OpGather, OpReduce, OpScatter}
	got := Ops()
	if len(got) != len(wantOps) {
		t.Fatalf("Ops() = %v, want %v", got, wantOps)
	}
	for i, op := range wantOps {
		if got[i] != op {
			t.Fatalf("Ops() = %v, want %v", got, wantOps)
		}
	}
	// Every op wraps both existing stacks.
	for _, op := range wantOps {
		if _, ok := Lookup(op, "oc"); !ok {
			t.Errorf("%s: no one-sided entry", op)
		}
		names := []string{}
		for _, a := range For(op) {
			names = append(names, a.Name)
		}
		if !strings.Contains(strings.Join(names, ","), "twosided") && op != OpBcast {
			t.Errorf("%s: no two-sided entry (have %v)", op, names)
		}
	}
	// The new algorithms that prove the interface generalizes.
	if _, ok := Lookup(OpAllReduce, "rabenseifner"); !ok {
		t.Error("allreduce: rabenseifner not registered")
	}
	if _, ok := Lookup(OpAllGather, "ring"); !ok {
		t.Error("allgather: ring not registered")
	}
	// Registered names resolve through Known; unknown ones don't.
	for _, name := range []string{"oc", "twosided", "rabenseifner", "ring", "binomial"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("nonsense") {
		t.Error(`Known("nonsense") = true`)
	}
}

func TestRegisterPanics(t *testing.T) {
	check := func(name string, a Algorithm) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(a)
	}
	check("duplicate", Algorithm{Op: OpBcast, Name: "oc", Run: func(*Env, Choice, Args) {}})
	check("no run", Algorithm{Op: OpBcast, Name: "newalg"})
	check("no name", Algorithm{Op: OpBcast, Run: func(*Env, Choice, Args) {}})
}

func TestChoiceString(t *testing.T) {
	cases := map[string]Choice{
		"oc(k=7,chunk=96)": {Alg: "oc", K: 7, ChunkLines: 96},
		"oc(k=7)":          {Alg: "oc", K: 7},
		"ring(chunk=48)":   {Alg: "ring", ChunkLines: 48},
		"twosided":         {Alg: "twosided"},
	}
	for want, ch := range cases {
		if got := ch.String(); got != want {
			t.Errorf("Choice%+v.String() = %q, want %q", ch, got, want)
		}
	}
}

func TestValidChoice(t *testing.T) {
	base := core.DefaultConfig()
	oc, _ := Lookup(OpAllReduce, "oc")
	if !ValidChoice(base, oc, Choice{Alg: "oc", K: 7, ChunkLines: 96}) {
		t.Error("paper default rejected")
	}
	// Two 96-line buffers + 2·47+2 flags exceed the 250-line budget.
	if ValidChoice(base, oc, Choice{Alg: "oc", K: 47, ChunkLines: 96}) {
		t.Error("k=47 with 96-line chunks accepted (cannot fit occoll flags)")
	}
	ts, _ := Lookup(OpAllReduce, "twosided")
	if !ValidChoice(base, ts, Choice{Alg: "twosided", K: 47, ChunkLines: 9999}) {
		t.Error("two-sided choice rejected (has no MPB layout)")
	}
}

// runEnv executes body on an n-core chip with a fresh Env per core.
func runEnv(t *testing.T, n int, body func(e *Env)) *rma.Chip {
	t.Helper()
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	base := core.DefaultConfig()
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		body(NewEnv(collective.NewComm(port), base, nil, nil))
	})
	return chip
}

// TestEveryRegisteredAlgorithmRuns executes every registry entry of
// every operation on a small chip and verifies the operation's semantics
// — the registry's core contract: entries of one op are interchangeable.
func TestEveryRegisteredAlgorithmRuns(t *testing.T) {
	const n, lines = 8, 3
	nbytes := lines * scc.CacheLine
	for _, op := range Ops() {
		for _, alg := range For(op) {
			alg := alg
			t.Run(string(op)+"/"+alg.Name, func(t *testing.T) {
				chip := rma.NewChipN(scc.DefaultConfig(), n)
				payloads := make([][]byte, n)
				for i := 0; i < n; i++ {
					payloads[i] = make([]byte, (n+1)*nbytes)
					for j := range payloads[i] {
						payloads[i][j] = byte(i*29 + j*3 + 7)
					}
					chip.Private(i).Write(0, payloads[i])
				}
				args := Args{Root: 0, Addr: 0, Scratch: 1 << 16, Lines: lines, Reduce: collective.SumInt64}
				base := core.DefaultConfig()
				chip.Run(func(c *rma.Core) {
					e := NewEnv(collective.NewComm(rcce.NewPort(c)), base, nil, nil)
					alg.Run(e, Choice{Alg: alg.Name}, args)
				})
				verifyOp(t, chip, op, n, lines, payloads)
			})
		}
	}
}

// verifyOp checks an operation's defining postcondition.
func verifyOp(t *testing.T, chip *rma.Chip, op Op, n, lines int, payloads [][]byte) {
	t.Helper()
	nbytes := lines * scc.CacheLine
	read := func(core, addr, nb int) []byte {
		b := make([]byte, nb)
		chip.Private(core).Read(b, addr, nb)
		return b
	}
	switch op {
	case OpBcast:
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(i, 0, nbytes), payloads[0][:nbytes]) {
				t.Fatalf("core %d: broadcast payload mismatch", i)
			}
		}
	case OpReduce:
		want := append([]byte(nil), payloads[0][:nbytes]...)
		for i := 1; i < n; i++ {
			collective.SumInt64(want, payloads[i][:nbytes])
		}
		if !bytes.Equal(read(0, 0, nbytes), want) {
			t.Fatal("root: reduce result mismatch")
		}
	case OpAllReduce:
		want := append([]byte(nil), payloads[0][:nbytes]...)
		for i := 1; i < n; i++ {
			collective.SumInt64(want, payloads[i][:nbytes])
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(i, 0, nbytes), want) {
				t.Fatalf("core %d: allreduce result mismatch", i)
			}
		}
	case OpScatter:
		for i := 1; i < n; i++ {
			if !bytes.Equal(read(i, i*nbytes, nbytes), payloads[0][i*nbytes:(i+1)*nbytes]) {
				t.Fatalf("core %d: scatter block mismatch", i)
			}
		}
	case OpGather:
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(0, i*nbytes, nbytes), payloads[i][i*nbytes:(i+1)*nbytes]) {
				t.Fatalf("root: gathered block %d mismatch", i)
			}
		}
	case OpAllGather:
		for i := 0; i < n; i++ {
			for b := 0; b < n; b++ {
				if !bytes.Equal(read(i, b*nbytes, nbytes), payloads[b][b*nbytes:(b+1)*nbytes]) {
					t.Fatalf("core %d: allgather block %d mismatch", i, b)
				}
			}
		}
	}
}

// TestEnvReusesInstances pins the Env caching rules: the base
// configuration resolves to the attached default engine, per-choice
// engines are cached, and the non-default path builds a working engine.
func TestEnvReusesInstances(t *testing.T) {
	runEnv(t, 4, func(e *Env) {
		a := e.OC(Choice{Alg: "oc"})
		if e.OC(Choice{Alg: "oc", K: e.Base.K, ChunkLines: e.Base.BufLines}) != a {
			t.Error("explicit base choice built a second engine")
		}
		b := e.OC(Choice{Alg: "oc", K: 3})
		if b == a {
			t.Error("k=3 choice reused the base engine")
		}
		if e.OC(Choice{Alg: "oc", K: 3}) != b {
			t.Error("k=3 engine not cached")
		}
		bc := e.Bcaster(Choice{})
		if e.Bcaster(Choice{}) != bc {
			t.Error("base broadcaster not cached")
		}
		if e.Bcaster(Choice{K: 3}) == bc {
			t.Error("k=3 broadcaster reused the base one")
		}
	})
}
