package circuit

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

func bell() *Circuit {
	c := New(2)
	c.Add("h", 0)
	c.Add("cx", 0, 1)
	return c
}

func TestAddValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(2).Add("cx", 0, 2) },  // out of range
		func() { New(2).Add("cx", 1, 1) },  // duplicate
		func() { New(2).Add("cx", 0) },     // wrong arity
		func() { New(2).Add("h", 0, 1) },   // wrong arity
		func() { New(2).Add("cx", -1, 0) }, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDepth(t *testing.T) {
	c := New(3)
	if c.Depth() != 0 {
		t.Error("empty circuit depth should be 0")
	}
	c.Add("h", 0)
	c.Add("h", 1)
	c.Add("h", 2)
	if c.Depth() != 1 {
		t.Errorf("parallel H depth = %d, want 1", c.Depth())
	}
	c.Add("cx", 0, 1)
	c.Add("cx", 1, 2)
	if c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", c.Depth())
	}
}

func TestCountByArity(t *testing.T) {
	c := New(4)
	c.Add("h", 0).Add("x", 1).Add("cx", 0, 1).Add("ccx", 0, 1, 2)
	o, tw, th := c.CountByArity()
	if o != 2 || tw != 1 || th != 1 {
		t.Errorf("counts = %d,%d,%d", o, tw, th)
	}
}

func TestUnitaryBell(t *testing.T) {
	u, err := bell().Unitary(5)
	if err != nil {
		t.Fatal(err)
	}
	vec := u.MulVec([]complex128{1, 0, 0, 0})
	s := 1 / math.Sqrt2
	if math.Abs(real(vec[0])-s) > 1e-12 || math.Abs(real(vec[3])-s) > 1e-12 {
		t.Errorf("Bell vector %v", vec)
	}
}

func TestUnitaryCapAndSymbolErrors(t *testing.T) {
	big := New(12)
	big.Add("h", 0)
	if _, err := big.Unitary(10); err == nil {
		t.Error("expected cap error")
	}
	sym := New(1)
	sym.AddSymbolic("rz", "theta", 0)
	if _, err := sym.Unitary(5); err == nil {
		t.Error("expected symbolic error")
	}
}

func TestBind(t *testing.T) {
	c := New(1)
	c.AddSymbolic("rz", "a", 0)
	c.AddSymbolic("rz", "b", 0)
	bound := c.Bind(map[string]float64{"a": 1.5})
	if bound.Gates[0].IsSymbolic() || bound.Gates[0].Params[0] != 1.5 {
		t.Error("a not bound")
	}
	if !bound.Gates[1].IsSymbolic() {
		t.Error("b should remain symbolic")
	}
	if !c.Gates[0].IsSymbolic() {
		t.Error("Bind must not mutate the original")
	}
}

func TestLabels(t *testing.T) {
	g := Gate{Name: "rz", Params: []float64{math.Pi / 2}, Qubits: []int{0}}
	if got := g.Label(); got != "rz(1.5708)" {
		t.Errorf("Label = %q", got)
	}
	s := Gate{Name: "rz", Symbol: "theta", Qubits: []int{0}}
	if got := s.Label(); got != "rz(theta)" {
		t.Errorf("symbolic Label = %q", got)
	}
	plain := Gate{Name: "cx", Qubits: []int{1, 2}}
	if plain.Label() != "cx" || plain.String() != "cx 1 2" {
		t.Errorf("plain = %q / %q", plain.Label(), plain.String())
	}
}

func TestRoundTripParse(t *testing.T) {
	c := New(3)
	c.Add("h", 0)
	c.AddParam("rz", []float64{0.25}, 1)
	c.Add("cx", 0, 2)
	c.AddSymbolic("rx", "g1", 2)
	got, err := Parse(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != c.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", got.String(), c.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"h 0",                     // gate before qubits
		"qubits 0",                // invalid count
		"qubits 2\ncx 0 5",        // out of range
		"qubits 2\nrz(abc,def) 0", // two symbols
		"qubits 2\nrz(0.5 0",      // unterminated params
		"qubits 2\nh",             // no qubits
		"qubits 2\ncx 0 x",        // bad qubit token
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	c, err := Parse("# header\n\nqubits 2\n# mid\nh 0\ncx 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Errorf("got %d gates", len(c.Gates))
	}
}

func TestDAGStructure(t *testing.T) {
	c := New(3)
	c.Add("h", 0)     // 0
	c.Add("h", 1)     // 1
	c.Add("cx", 0, 1) // 2 depends on 0,1
	c.Add("cx", 1, 2) // 3 depends on 2
	c.Add("h", 0)     // 4 depends on 2
	d := BuildDAG(c)
	wantPreds := [][]int{nil, nil, {0, 1}, {2}, {2}}
	for i, want := range wantPreds {
		if len(d.Preds[i]) != len(want) {
			t.Fatalf("gate %d preds = %v, want %v", i, d.Preds[i], want)
		}
		for j := range want {
			if d.Preds[i][j] != want[j] {
				t.Fatalf("gate %d preds = %v, want %v", i, d.Preds[i], want)
			}
		}
	}
}

func TestDAGNoDuplicateEdgeForTwoSharedQubits(t *testing.T) {
	c := New(2)
	c.Add("cx", 0, 1)
	c.Add("cx", 1, 0) // shares BOTH qubits with gate 0
	d := BuildDAG(c)
	if len(d.Preds[1]) != 1 {
		t.Errorf("expected single dependence edge, got %v", d.Preds[1])
	}
}

// TestTopoOrderIsLinearExtension: every dependence edge points forward,
// so gate order is already topological. The critical-path sweeps in
// internal/critical rest on this.
func TestTopoOrderIsLinearExtension(t *testing.T) {
	f := func(seed int64) bool {
		d := BuildDAG(randomCircuit(seed, 5, 30))
		for u, ss := range d.Succs {
			for _, s := range ss {
				if s <= u {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := bell()
	cl := c.Clone()
	cl.Gates[0].Name = "x"
	cl.Gates[1].Qubits[0] = 1
	if c.Gates[0].Name != "h" || c.Gates[1].Qubits[0] != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestUsedQubits(t *testing.T) {
	c := New(10)
	c.Add("cx", 7, 2)
	c.Add("h", 5)
	got := c.UsedQubits()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 7 {
		t.Errorf("UsedQubits = %v", got)
	}
}

func TestCircuitUnitaryMatchesManualComposition(t *testing.T) {
	c := New(2)
	c.Add("h", 0)
	c.Add("cx", 0, 1)
	c.Add("h", 1)
	u, err := c.Unitary(5)
	if err != nil {
		t.Fatal(err)
	}
	manual := quantum.SequenceUnitary(2, []quantum.EmbeddedOp{
		{U: quantum.MatH, Wires: []int{0}},
		{U: quantum.MatCX, Wires: []int{0, 1}},
		{U: quantum.MatH, Wires: []int{1}},
	})
	if !u.Equal(manual, 1e-12) {
		t.Error("unitary mismatch")
	}
	if !u.IsUnitary(1e-10) {
		t.Error("circuit unitary not unitary")
	}
}

func TestStringContainsHeader(t *testing.T) {
	if !strings.HasPrefix(bell().String(), "qubits 2\n") {
		t.Error("missing qubits header")
	}
}

// randomCircuit builds an arbitrary well-formed circuit for property tests.
func randomCircuit(seed int64, nq, gates int) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := New(nq)
	names1 := []string{"h", "x", "t", "s"}
	for i := 0; i < gates; i++ {
		if rng.Intn(2) == 0 {
			c.Add(names1[rng.Intn(len(names1))], rng.Intn(nq))
		} else {
			a := rng.Intn(nq)
			b := rng.Intn(nq)
			for b == a {
				b = rng.Intn(nq)
			}
			c.Add("cx", a, b)
		}
	}
	return c
}

var _ = linalg.Identity // keep import for doc examples

// wireWalkDAG is an independent oracle for BuildQubitDAG: gate i depends
// on the previous gate of each of its wires, listed in qubit order without
// repeats, and each gate's successors are listed in gate order.
func wireWalkDAG(c *Circuit) (preds, succs [][]int) {
	wires := make([][]int, c.NumQubits)
	preds = make([][]int, len(c.Gates))
	succs = make([][]int, len(c.Gates))
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if w := wires[q]; len(w) > 0 && !slices.Contains(preds[i], w[len(w)-1]) {
				preds[i] = append(preds[i], w[len(w)-1])
			}
			wires[q] = append(wires[q], i)
		}
	}
	for i, ps := range preds {
		for _, p := range ps {
			succs[p] = append(succs[p], i)
		}
	}
	return preds, succs
}

// TestFillQubitDAGReusesStorage: refilling one DAG with circuits of
// different sizes gives, each time, the lists of the wire-walk oracle.
func TestFillQubitDAGReusesStorage(t *testing.T) {
	d := &DAG{}
	last := make([]int, 6)
	for seed := int64(0); seed < 30; seed++ {
		c := randomCircuit(seed, 6, 5+int(seed*7%60))
		sets := make([][]int, len(c.Gates))
		for i, g := range c.Gates {
			sets[i] = g.Qubits
		}
		FillQubitDAG(d, last, sets)
		preds, succs := wireWalkDAG(c)
		if d.NumGates != len(c.Gates) || len(d.Preds) != len(c.Gates) || len(d.Succs) != len(c.Gates) {
			t.Fatalf("seed %d: %d nodes, want %d", seed, d.NumGates, len(c.Gates))
		}
		for i := range c.Gates {
			if !slices.Equal(d.Preds[i], preds[i]) || !slices.Equal(d.Succs[i], succs[i]) {
				t.Fatalf("seed %d gate %d: preds %v succs %v, want %v %v", seed, i, d.Preds[i], d.Succs[i], preds[i], succs[i])
			}
		}
	}
}

// TestDAGAppendCannotOverwriteNeighbour: every list's capacity ends at its
// own storage, so a caller's append to one gate's Succs or Preds leaves
// every other list as it was.
func TestDAGAppendCannotOverwriteNeighbour(t *testing.T) {
	c := randomCircuit(3, 5, 60)
	d := BuildDAG(c)
	preds, succs := wireWalkDAG(c)
	for i := range c.Gates {
		d.Succs[i] = append(d.Succs[i], -1, -2, -3)
		d.Preds[i] = append(d.Preds[i], -4, -5, -6)
		for k := range c.Gates {
			if k == i {
				continue
			}
			if !slices.Equal(d.Preds[k], preds[k]) || !slices.Equal(d.Succs[k], succs[k]) {
				t.Fatalf("appending to gate %d's lists changed gate %d's: preds %v succs %v, want %v %v",
					i, k, d.Preds[k], d.Succs[k], preds[k], succs[k])
			}
		}
		d.Succs[i], d.Preds[i] = d.Succs[i][:len(succs[i])], d.Preds[i][:len(preds[i])]
	}
}

func BenchmarkBuildDAG(b *testing.B) {
	c := randomCircuit(1, 16, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildDAG(c)
	}
}

func TestRenderASCII(t *testing.T) {
	c := New(3)
	c.Add("h", 0)
	c.Add("cx", 0, 2)
	c.AddParam("rz", []float64{0.5}, 1)
	out := c.RenderASCII()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 wire rows, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "H") || !strings.Contains(lines[0], "●") {
		t.Errorf("q0 row missing H/control: %q", lines[0])
	}
	if !strings.Contains(lines[2], "X") {
		t.Errorf("q2 row missing target: %q", lines[2])
	}
	if !strings.Contains(lines[1], "│") {
		t.Errorf("q1 row missing vertical connector: %q", lines[1])
	}
	if New(2).RenderASCII() != "(empty circuit)\n" {
		t.Error("empty render wrong")
	}
}

func FuzzParse(f *testing.F) {
	f.Add("qubits 3\nh 0\ncx 0 1\nrz(0.5) 2\n")
	f.Add("qubits 1\nrz(theta) 0\n")
	f.Add("# comment\nqubits 2\nswap 0 1\n")
	f.Add("qubits 7\n() 0")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		// A successful parse must round-trip.
		again, err := Parse(c.String())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.String() != c.String() {
			t.Fatal("round trip not idempotent")
		}
	})
}

func TestCompact(t *testing.T) {
	c := New(10)
	c.Add("h", 7)
	c.Add("cx", 7, 2)
	cc, remap := c.Compact()
	if cc.NumQubits != 2 {
		t.Fatalf("compact width = %d", cc.NumQubits)
	}
	if remap[2] != 0 || remap[7] != 1 {
		t.Errorf("remap = %v", remap)
	}
	if cc.Gates[1].Qubits[0] != 1 || cc.Gates[1].Qubits[1] != 0 {
		t.Errorf("gate remap wrong: %v", cc.Gates[1])
	}
	// Empty circuit compacts to a 1-qubit shell.
	e, _ := New(5).Compact()
	if e.NumQubits != 1 || len(e.Gates) != 0 {
		t.Error("empty compact wrong")
	}
}
