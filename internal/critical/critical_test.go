package critical

import (
	"math"
	"math/rand"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
)

// unitLatency gives every block latency 1, making critical path = depth.
func unitLatency(*pulse.CustomGate) (float64, error) { return 1, nil }

func fromGates(t *testing.T, nq int, build func(c *circuit.Circuit)) *BlockCircuit {
	t.Helper()
	c := circuit.New(nq)
	build(c)
	bc, err := FromCircuit(c, unitLatency)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func TestCriticalPathMatchesDepth(t *testing.T) {
	bc := fromGates(t, 3, func(c *circuit.Circuit) {
		c.Add("h", 0)
		c.Add("cx", 0, 1)
		c.Add("cx", 1, 2)
		c.Add("h", 2)
	})
	if got := bc.CriticalPath(); got != 4 {
		t.Errorf("CP = %g, want 4", got)
	}
	if got := bc.TotalLatency(); got != 4 {
		t.Errorf("total = %g", got)
	}
}

func TestValidMergeBasics(t *testing.T) {
	bc := fromGates(t, 3, func(c *circuit.Circuit) {
		c.Add("h", 0)     // 0
		c.Add("cx", 0, 1) // 1
		c.Add("cx", 1, 2) // 2
	})
	if !bc.ValidMerge(0, 1, 3) {
		t.Error("adjacent merge should be valid")
	}
	if bc.ValidMerge(0, 2, 3) {
		t.Error("non-adjacent blocks must not merge")
	}
	if bc.ValidMerge(1, 2, 2) {
		t.Error("width-3 merge must respect maxN=2")
	}
	if bc.ValidMerge(1, 0, 3) {
		t.Error("reversed indices must be invalid")
	}
}

func TestValidMergeRejectsIndirectPath(t *testing.T) {
	// 0: cx(0,1); 1: h(1); 2: cx(1,0)? -> direct and indirect paths:
	// 0→1→2 and 0→2? Build: a=cx(0,1); w=h(0); b=cx(0,1).
	bc := fromGates(t, 2, func(c *circuit.Circuit) {
		c.Add("cx", 0, 1) // 0
		c.Add("h", 0)     // 1: depends on 0
		c.Add("cx", 0, 1) // 2: depends on 0 (qubit 1) and 1 (qubit 0)
	})
	dag := bc.DAG()
	if len(dag.Succs[0]) != 2 {
		t.Fatalf("expected 0 to have two successors, got %v", dag.Succs[0])
	}
	if bc.ValidMerge(0, 2, 3) {
		t.Error("merging around an intermediate dependence must be invalid")
	}
	if !bc.ValidMerge(0, 1, 3) || !bc.ValidMerge(1, 2, 3) {
		t.Error("chain merges should be valid")
	}
}

func TestCandidatesCaseClassification(t *testing.T) {
	// Heavy chain on qubits 0,1 is critical; light pair on 2,3 is not.
	c := circuit.New(4)
	c.Add("cx", 0, 1) // 0 critical
	c.Add("cx", 0, 1) // 1 critical
	c.Add("h", 2)     // 2 off-critical
	c.Add("h", 2)     // 3 off-critical
	bc, err := FromCircuit(c, func(cg *pulse.CustomGate) (float64, error) {
		if cg.NumQubits() == 2 {
			return 100, nil
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := bc.Candidates(3, false)
	var gotI, gotIII int
	for _, cand := range all {
		switch cand.Case {
		case CaseI:
			gotI++
		case CaseIII:
			gotIII++
		}
	}
	if gotI != 1 || gotIII != 1 {
		t.Errorf("cases I=%d III=%d, want 1 and 1 (candidates %v)", gotI, gotIII, all)
	}
	pruned := bc.Candidates(3, true)
	for _, cand := range pruned {
		if cand.Case == CaseIII {
			t.Error("Case III survived pruning")
		}
	}
}

func TestCandidatesCaseII(t *testing.T) {
	// Fig. 9-c: A on the critical path, C a light non-critical successor,
	// while the critical path continues through a heavy chain on qubit 0.
	c := circuit.New(4)
	c.Add("cx", 0, 1) // 0: heavy, critical
	c.Add("cx", 0, 1) // 1: A — heavy, critical
	c.Add("cx", 1, 2) // 2: C — light successor of A, off-critical
	c.Add("cx", 0, 3) // 3: heavy critical continuation after A
	bc, err := FromCircuit(c, func(cg *pulse.CustomGate) (float64, error) {
		if cg.NumQubits() == 2 && cg.Qubits[0] == 0 {
			return 100, nil
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	on := bc.OnCriticalPath()
	if !on[1] || on[2] {
		t.Fatalf("criticality setup wrong: %v", on)
	}
	found := false
	for _, cand := range bc.Candidates(3, true) {
		if cand.I == 1 && cand.J == 2 && cand.Case == CaseII {
			found = true
		}
	}
	if !found {
		t.Error("expected a Case II candidate (critical A with non-critical C)")
	}
}

func TestPreprocessCandidatesNestedQubits(t *testing.T) {
	bc := fromGates(t, 2, func(c *circuit.Circuit) {
		c.Add("h", 0)     // 0 ⊂ cx's qubits
		c.Add("cx", 0, 1) // 1
		c.Add("t", 1)     // 2 ⊂ cx's qubits
	})
	pre := bc.PreprocessCandidates(3)
	if len(pre) != 2 {
		t.Fatalf("preprocess candidates = %d, want 2 (%v)", len(pre), pre)
	}
}

func TestPreprocessCandidatesAlwaysValid(t *testing.T) {
	// Every structural preprocess candidate must also pass the general
	// validity check (no cycles on contraction).
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		bc := randomBlocks(t, rng)
		for _, cand := range bc.PreprocessCandidates(3) {
			if !bc.ValidMerge(cand.I, cand.J, 3) {
				t.Fatalf("trial %d: preprocess candidate (%d,%d) fails ValidMerge", trial, cand.I, cand.J)
			}
		}
	}
}

func TestPreprocessSkipsAmbiguousDirection(t *testing.T) {
	// cx(0,1) followed by a 1q gate whose wire was last written by a
	// different gate must not be paired with the wrong predecessor: the
	// jSub condition requires Preds(j) == {i}.
	bc := fromGates(t, 3, func(c *circuit.Circuit) {
		c.Add("cx", 0, 1) // 0
		c.Add("cx", 1, 2) // 1
		c.Add("h", 1)     // 2: pred is 1, not 0
	})
	for _, cand := range bc.PreprocessCandidates(3) {
		if cand.J == 2 && cand.I == 0 {
			t.Error("preprocess paired h(1) with a non-predecessor")
		}
	}
}

func TestCPIfMergedAccountsForFalseDependence(t *testing.T) {
	// Fig. 4: merging A and B creates a false dependence that elongates
	// the critical path; merging A and C does not.
	// A = cx(0,1), C = h(0) [A's successor off-CP], B = cx(1,2) then chain.
	c := circuit.New(3)
	c.Add("cx", 0, 1) // 0: A
	c.Add("h", 0)     // 1: C (off critical path)
	c.Add("cx", 1, 2) // 2: B (critical continuation)
	c.Add("cx", 1, 2) // 3: more critical work
	bc, err := FromCircuit(c, func(cg *pulse.CustomGate) (float64, error) {
		if cg.NumQubits() == 2 {
			return 10, nil
		}
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := bc.CriticalPath() // 30 via A→B→chain
	if base != 30 {
		t.Fatalf("base CP = %g, want 30", base)
	}
	// Merge A+C with a latency barely better than sum: CP through B chain
	// unchanged → still 30 if Lac ≤ 10.
	if got := bc.CPIfMerged(0, 1, 10); got != 30 {
		t.Errorf("CP after A+C merge = %g, want 30", got)
	}
	// Merge A+B into latency 15 (< 20): CP = 15+10 = 25; and C now hangs
	// off the merged block: 15+2 < 25 fine.
	if got := bc.CPIfMerged(0, 2, 15); got != 25 {
		t.Errorf("CP after A+B merge = %g, want 25", got)
	}
}

func TestCPIfMergedMatchesReplaceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		bc := randomBlocks(t, rng)
		cands := bc.Candidates(3, false)
		if len(cands) == 0 {
			continue
		}
		cand := cands[rng.Intn(len(cands))]
		lab := 1 + rng.Float64()*20
		predicted := bc.CPIfMerged(cand.I, cand.J, lab)
		bc.ReplaceMerge(cand.I, cand.J, Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]), lab, nil)
		if got := bc.CriticalPath(); math.Abs(got-predicted) > 1e-9 {
			t.Fatalf("trial %d: predicted CP %g, actual %g", trial, predicted, got)
		}
	}
}

func TestReplaceMergePreservesSemantics(t *testing.T) {
	// Flattened circuit after merges must implement the same unitary.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		c := circuit.New(3)
		names := []string{"h", "t", "s"}
		for i := 0; i < 12; i++ {
			if rng.Intn(2) == 0 {
				c.Add(names[rng.Intn(3)], rng.Intn(3))
			} else {
				a, b := rng.Intn(3), rng.Intn(3)
				for b == a {
					b = rng.Intn(3)
				}
				c.Add("cx", a, b)
			}
		}
		want, err := c.Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := FromCircuit(c, unitLatency)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			cands := bc.Candidates(3, false)
			if len(cands) == 0 {
				break
			}
			cand := cands[rng.Intn(len(cands))]
			bc.ReplaceMerge(cand.I, cand.J, Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]), 1, nil)
		}
		got, err := bc.Flatten().Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		if linalg.GlobalPhaseDistance(want, got) > 1e-9 {
			t.Fatalf("trial %d: merging changed the circuit unitary", trial)
		}
	}
}

func TestReplaceMergeKeepsLinearExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		bc := randomBlocks(t, rng)
		for round := 0; round < 6; round++ {
			cands := bc.Candidates(3, false)
			if len(cands) == 0 {
				break
			}
			cand := cands[rng.Intn(len(cands))]
			bc.ReplaceMerge(cand.I, cand.J, Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]), 1, nil)
			// Every dependence edge must point forward in block order.
			dag := bc.DAG()
			for u, ss := range dag.Succs {
				for _, s := range ss {
					if s <= u {
						t.Fatalf("trial %d: edge %d→%d violates linear extension", trial, u, s)
					}
				}
			}
			dag.TopoOrder() // panics on cycles
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	bc := fromGates(t, 2, func(c *circuit.Circuit) {
		c.Add("h", 0)
		c.Add("cx", 0, 1)
	})
	cl := bc.Clone()
	cl.Blocks[0].Latency = 99
	cl.Blocks[0].Gates[0].Name = "x"
	if bc.Blocks[0].Latency == 99 || bc.Blocks[0].Gates[0].Name == "x" {
		t.Error("Clone shares mutable state")
	}
}

func TestGeneratedCollects(t *testing.T) {
	bc := fromGates(t, 2, func(c *circuit.Circuit) {
		c.Add("h", 0)
	})
	g := &pulse.Generated{Latency: 5}
	bc.Blocks[0].Gen = g
	if got := bc.Generated(); len(got) != 1 || got[0] != g {
		t.Error("Generated() mismatch")
	}
}

func randomBlocks(t *testing.T, rng *rand.Rand) *BlockCircuit {
	t.Helper()
	c := circuit.New(4)
	for i := 0; i < 15; i++ {
		if rng.Intn(2) == 0 {
			c.Add("h", rng.Intn(4))
		} else {
			a, b := rng.Intn(4), rng.Intn(4)
			for b == a {
				b = rng.Intn(4)
			}
			c.Add("cx", a, b)
		}
	}
	bc, err := FromCircuit(c, func(cg *pulse.CustomGate) (float64, error) {
		return 1 + rng.Float64()*9, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func BenchmarkCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := circuit.New(10)
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			c.Add("h", rng.Intn(10))
		} else {
			x, y := rng.Intn(10), rng.Intn(10)
			for y == x {
				y = rng.Intn(10)
			}
			c.Add("cx", x, y)
		}
	}
	bc, _ := FromCircuit(c, unitLatency)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Candidates(3, true)
	}
}

func BenchmarkCPIfMerged(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	bcSrc := circuit.New(10)
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(10), rng.Intn(10)
		for y == x {
			y = rng.Intn(10)
		}
		bcSrc.Add("cx", x, y)
	}
	bc, _ := FromCircuit(bcSrc, unitLatency)
	cands := bc.Candidates(3, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		bc.CPIfMerged(c.I, c.J, 1.5)
	}
}

func TestTimelineMakespanEqualsCriticalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		bc := randomBlocks(t, rng)
		// Apply a few merges so the timeline covers merged blocks too.
		for round := 0; round < 3; round++ {
			cands := bc.Candidates(3, false)
			if len(cands) == 0 {
				break
			}
			c := cands[rng.Intn(len(cands))]
			bc.ReplaceMerge(c.I, c.J, Merge(bc.Blocks[c.I], bc.Blocks[c.J]), 1+rng.Float64()*9, nil)
		}
		tl, err := bc.Timeline()
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(tl.Makespan-bc.CriticalPath()) > 1e-9 {
			t.Fatalf("trial %d: makespan %g != critical path %g", trial, tl.Makespan, bc.CriticalPath())
		}
	}
}

// TestSplitRestoresGateBlocks: splitting a merged block puts its gates
// back as single-gate blocks in its place. The flattened circuit is
// unchanged, Origin tags follow their gates, and the rebuilt DAG gives
// the critical path of the split blocks.
func TestSplitRestoresGateBlocks(t *testing.T) {
	bc := fromGates(t, 3, func(c *circuit.Circuit) {
		c.Add("h", 0)     // 0
		c.Add("cx", 0, 1) // 1
		c.Add("x", 2)     // 2
		c.Add("cx", 1, 2) // 3
		c.Add("h", 1)     // 4
	})
	want := bc.Flatten()
	m := Merge(bc.Blocks[0], bc.Blocks[1])
	bc.ReplaceMerge(0, 1, m, 1, nil)
	if got := bc.CriticalPath(); got != 3 {
		t.Fatalf("merged CP = %g, want 3", got)
	}
	parts := bc.Split(0)
	if len(parts) != 2 || len(bc.Blocks) != 5 {
		t.Fatalf("split gave %d parts and %d blocks, want 2 and 5", len(parts), len(bc.Blocks))
	}
	for k, b := range parts {
		if bc.Blocks[k] != b || len(b.Gates) != 1 || b.APA || b.Gen != nil || len(b.Origin) != 1 || b.Origin[0] != k {
			t.Fatalf("part %d: %+v not a fresh single-gate block in place", k, b)
		}
		b.Latency = 1
	}
	got := bc.Flatten()
	for i := range want.Gates {
		if got.Gates[i].String() != want.Gates[i].String() {
			t.Fatalf("gate %d after split: %s, want %s", i, got.Gates[i], want.Gates[i])
		}
	}
	if got := bc.CriticalPath(); got != 4 {
		t.Errorf("CP after split = %g, want 4 (the DAG must be rebuilt)", got)
	}
}
