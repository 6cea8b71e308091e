package mining

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"paqoc/internal/circuit"
)

// mustMine is MineCtx for tests that treat option errors as fatal.
func mustMine(tb testing.TB, c *circuit.Circuit, opts Options) []Pattern {
	tb.Helper()
	patterns, err := MineCtx(context.Background(), c, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return patterns
}

// swapChain builds the bv-style pattern: repeated SWAPs lowered to 3 CX.
func swapChain(reps int) *circuit.Circuit {
	c := circuit.New(reps + 1)
	for i := 0; i < reps; i++ {
		c.Add("cx", i, i+1)
		c.Add("cx", i+1, i)
		c.Add("cx", i, i+1)
	}
	return c
}

func TestMineFindsSwapPattern(t *testing.T) {
	c := swapChain(4)
	patterns := mustMine(t, c, DefaultOptions())
	if len(patterns) == 0 {
		t.Fatal("no patterns found")
	}
	// The top-coverage pattern should be the 3-CX SWAP idiom (12 of 12
	// gates covered).
	top := patterns[0]
	if top.GateCount != 3 || top.QubitCount != 2 {
		t.Errorf("top pattern has %d gates on %d qubits, want 3 gates on 2 qubits (sig %q)",
			top.GateCount, top.QubitCount, top.Signature)
	}
	if top.Support != 4 {
		t.Errorf("support = %d, want 4", top.Support)
	}
}

func TestMineControlTargetDisambiguation(t *testing.T) {
	// Fig. 5: cx;rz-on-target vs cx;rz-on-control look similar but must be
	// distinct patterns.
	c := circuit.New(6)
	for i := 0; i < 6; i += 2 {
		c.Add("cx", i, i+1)
		c.AddParam("rz", []float64{0.5}, i+1) // on target
	}
	patterns := mustMine(t, c, DefaultOptions())
	var sigTarget string
	for _, p := range patterns {
		if p.GateCount == 2 && p.Support == 3 {
			sigTarget = p.Signature
		}
	}
	if sigTarget == "" {
		t.Fatal("cx;rz(target) pattern not found")
	}

	c2 := circuit.New(6)
	for i := 0; i < 6; i += 2 {
		c2.Add("cx", i, i+1)
		c2.AddParam("rz", []float64{0.5}, i) // on control
	}
	patterns2 := mustMine(t, c2, DefaultOptions())
	var sigControl string
	for _, p := range patterns2 {
		if p.GateCount == 2 && p.Support == 3 {
			sigControl = p.Signature
		}
	}
	if sigControl == "" {
		t.Fatal("cx;rz(control) pattern not found")
	}
	if sigControl == sigTarget {
		t.Error("control/target patterns must have distinct signatures")
	}
}

func TestMineAngleSensitivity(t *testing.T) {
	// rz(0.5) and rz(0.7) must not be conflated; symbolic gates with the
	// same symbol must be.
	c := circuit.New(4)
	c.Add("cx", 0, 1)
	c.AddParam("rz", []float64{0.5}, 1)
	c.Add("cx", 2, 3)
	c.AddParam("rz", []float64{0.7}, 3)
	if got := mustMine(t, c, DefaultOptions()); len(got) != 0 {
		t.Errorf("different angles should not form a frequent pattern: %v", got)
	}

	s := circuit.New(4)
	s.Add("cx", 0, 1)
	s.AddSymbolic("rz", "theta", 1)
	s.Add("cx", 2, 3)
	s.AddSymbolic("rz", "theta", 3)
	if got := mustMine(t, s, DefaultOptions()); len(got) == 0 {
		t.Error("matching symbolic angles should form a pattern")
	}
}

func TestMineQubitPermutationInvariance(t *testing.T) {
	// The same pattern on different physical qubits must share a
	// signature (local renaming).
	c := circuit.New(6)
	c.Add("h", 0)
	c.Add("cx", 0, 1)
	c.Add("h", 4)
	c.Add("cx", 4, 5)
	patterns := mustMine(t, c, DefaultOptions())
	found := false
	for _, p := range patterns {
		if p.GateCount == 2 && p.Support == 2 {
			found = true
		}
	}
	if !found {
		t.Error("h;cx on disjoint wire pairs should match")
	}
}

func TestMineRespectsQubitCap(t *testing.T) {
	c := circuit.New(8)
	for i := 0; i+3 < 8; i += 4 {
		c.Add("cx", i, i+1)
		c.Add("cx", i+1, i+2)
		c.Add("cx", i+2, i+3)
	}
	opts := DefaultOptions()
	opts.MaxQubits = 3
	for _, p := range mustMine(t, c, opts) {
		if p.QubitCount > 3 {
			t.Errorf("pattern exceeds qubit cap: %q on %d qubits", p.Signature, p.QubitCount)
		}
	}
}

func TestMineRespectsGateCap(t *testing.T) {
	c := swapChain(5)
	opts := DefaultOptions()
	opts.MaxGates = 2
	for _, p := range mustMine(t, c, opts) {
		if p.GateCount > 2 {
			t.Errorf("pattern exceeds gate cap: %d", p.GateCount)
		}
	}
}

func TestMineCPhasePattern(t *testing.T) {
	// qaoa's CPHASE idiom: cx; rz; cx (Table III).
	c := circuit.New(6)
	gamma := 0.731
	for _, p := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {1, 2}} {
		c.Add("cx", p[0], p[1])
		c.AddParam("rz", []float64{gamma}, p[1])
		c.Add("cx", p[0], p[1])
	}
	patterns := mustMine(t, c, DefaultOptions())
	if len(patterns) == 0 {
		t.Fatal("no patterns")
	}
	top := patterns[0]
	if top.GateCount != 3 || top.Support != 4 {
		t.Errorf("expected the CPHASE idiom with support 4, got %d gates support %d (%q)",
			top.GateCount, top.Support, top.Signature)
	}
	if !strings.Contains(top.Signature, "rz(0.731)") {
		t.Errorf("signature should carry the angle: %q", top.Signature)
	}
}

func TestSupportCountsAreExact(t *testing.T) {
	// Overlapping occurrences must not inflate support: h;h;h has two
	// overlapping h;h embeddings but only 1 disjoint pair... actually 3 h
	// gates give embeddings {0,1},{1,2}; disjoint family = {0,1} only.
	c := circuit.New(1)
	c.Add("h", 0)
	c.Add("h", 0)
	c.Add("h", 0)
	opts := DefaultOptions()
	opts.MinSupport = 1
	patterns := mustMine(t, c, opts)
	for _, p := range patterns {
		if p.GateCount == 2 && p.Support != 1 {
			t.Errorf("h;h support = %d, want 1 (disjoint)", p.Support)
		}
	}
}

func TestConvex(t *testing.T) {
	c := circuit.New(2)
	c.Add("cx", 0, 1) // 0
	c.Add("h", 0)     // 1
	c.Add("cx", 0, 1) // 2
	dag := circuit.BuildDAG(c)
	mark := make([]byte, len(c.Gates))
	isConvex := func(emb []int) bool {
		got := convex(dag, emb, mark)
		if want := refConvex(dag, emb); got != want {
			t.Errorf("convex(%v) = %v, reference %v", emb, got, want)
		}
		if slices.ContainsFunc(mark, func(b byte) bool { return b != 0 }) {
			t.Fatalf("convex(%v) left marks behind: %v", emb, mark)
		}
		return got
	}
	if isConvex([]int{0, 2}) {
		t.Error("{0,2} threads through outside gate 1: not convex")
	}
	if !isConvex([]int{0, 1}) || !isConvex([]int{1, 2}) || !isConvex([]int{0, 1, 2}) {
		t.Error("contiguous sets should be convex")
	}
}

func TestSelectCoverageGreedy(t *testing.T) {
	c := swapChain(4) // 12 gates, all covered by the SWAP pattern
	patterns := mustMine(t, c, DefaultOptions())
	sels := Select(c, patterns, 1, 2)
	if len(sels) != 1 {
		t.Fatalf("selections = %d", len(sels))
	}
	if got := sels[0].CoveredGates(); got != 12 {
		t.Errorf("covered = %d, want 12", got)
	}
	// Chosen embeddings must be pairwise disjoint.
	seen := map[int]bool{}
	for _, emb := range sels[0].Chosen {
		for _, gi := range emb {
			if seen[gi] {
				t.Fatal("overlapping committed embeddings")
			}
			seen[gi] = true
		}
	}
}

func TestSelectMZero(t *testing.T) {
	c := swapChain(3)
	if got := Select(c, mustMine(t, c, DefaultOptions()), 0, 2); got != nil {
		t.Error("M=0 must select nothing")
	}
}

func TestSelectUnlimited(t *testing.T) {
	// Two distinct frequent patterns: SWAP idiom and h;h pairs.
	c := circuit.New(6)
	for i := 0; i < 2; i++ {
		base := i * 3
		c.Add("cx", base, base+1)
		c.Add("cx", base+1, base)
		c.Add("cx", base, base+1)
	}
	c.Add("h", 2)
	c.Add("t", 2)
	c.Add("h", 5)
	c.Add("t", 5)
	patterns := mustMine(t, c, DefaultOptions())
	limited := Select(c, patterns, 1, 2)
	unlimited := Select(c, patterns, -1, 2)
	if len(unlimited) <= len(limited) {
		t.Errorf("M=inf should select more patterns: %d vs %d", len(unlimited), len(limited))
	}
}

func TestTunedM(t *testing.T) {
	c := swapChain(4)
	patterns := mustMine(t, c, DefaultOptions())
	m := TunedM(c, patterns, 2)
	if m != 1 {
		t.Errorf("TunedM = %d, want 1 (one pattern covers everything)", m)
	}
	empty := circuit.New(2)
	empty.Add("h", 0)
	if got := TunedM(empty, mustMine(t, empty, DefaultOptions()), 2); got != 0 {
		t.Errorf("TunedM on patternless circuit = %d, want 0", got)
	}
}

func TestMineDeterminism(t *testing.T) {
	c := swapChain(4)
	a := mustMine(t, c, DefaultOptions())
	b := mustMine(t, c, DefaultOptions())
	if len(a) != len(b) {
		t.Fatal("nondeterministic pattern count")
	}
	for i := range a {
		if a[i].Signature != b[i].Signature || a[i].Support != b[i].Support {
			t.Fatal("nondeterministic mining output")
		}
	}
}

func TestMineEnumLimitGraceful(t *testing.T) {
	c := swapChain(6)
	opts := DefaultOptions()
	opts.EnumLimit = 50
	// Must not hang or panic; may return fewer patterns.
	_ = mustMine(t, c, opts)
}

func TestMineEmptyAndTinyCircuits(t *testing.T) {
	if got := mustMine(t, circuit.New(3), DefaultOptions()); len(got) != 0 {
		t.Error("empty circuit should have no patterns")
	}
	one := circuit.New(2)
	one.Add("cx", 0, 1)
	if got := mustMine(t, one, DefaultOptions()); len(got) != 0 {
		t.Error("single gate cannot recur")
	}
}

var _ = math.Pi

func BenchmarkMineSwapChain(b *testing.B) {
	c := swapChain(12)
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustMine(b, c, opts)
	}
}
