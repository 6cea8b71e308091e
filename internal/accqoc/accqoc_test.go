package accqoc

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/latency"
	"paqoc/internal/linalg"
)

func randomCircuit(seed int64, nq, gates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(nq)
	names := []string{"h", "t", "s", "x"}
	for i := 0; i < gates; i++ {
		if rng.Intn(3) == 0 {
			c.Add(names[rng.Intn(len(names))], rng.Intn(nq))
		} else {
			a, b := rng.Intn(nq), rng.Intn(nq)
			for b == a {
				b = rng.Intn(nq)
			}
			c.Add("cx", a, b)
		}
	}
	return c
}

func TestPartitionCoversAllGatesOnce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randomCircuit(seed, 6, 60)
		groups := Partition(c, 3, 3)
		seen := make([]bool, len(c.Gates))
		for _, grp := range groups {
			for _, gi := range grp {
				if seen[gi] {
					t.Fatalf("seed %d: gate %d in two groups", seed, gi)
				}
				seen[gi] = true
			}
		}
		for gi, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: gate %d not covered", seed, gi)
			}
		}
	}
}

func TestPartitionRespectsCaps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randomCircuit(seed, 6, 60)
		for _, caps := range [][2]int{{3, 3}, {3, 5}, {2, 3}} {
			for _, grp := range Partition(c, caps[0], caps[1]) {
				qs := map[int]bool{}
				level := map[int]int{}
				depth := 0
				for _, gi := range grp {
					g := c.Gates[gi]
					mx := 0
					for _, q := range g.Qubits {
						qs[q] = true
						if level[q] > mx {
							mx = level[q]
						}
					}
					mx++
					for _, q := range g.Qubits {
						level[q] = mx
					}
					if mx > depth {
						depth = mx
					}
				}
				if len(qs) > caps[0] {
					t.Fatalf("group qubits %d > cap %d", len(qs), caps[0])
				}
				if depth > caps[1] {
					t.Fatalf("group depth %d > cap %d", depth, caps[1])
				}
			}
		}
	}
}

func TestPartitionBlockOrderIsLinearExtension(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := randomCircuit(seed, 6, 80)
		bc := blocksFromGroups(c, Partition(c, 3, 5))
		dag := bc.DAG()
		for u, ss := range dag.Succs {
			for _, s := range ss {
				if s <= u {
					t.Fatalf("seed %d: edge %d→%d violates linear extension", seed, u, s)
				}
			}
		}
	}
}

func TestCompilePreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := randomCircuit(seed, 3, 20)
		want, err := c.Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileCtx(context.Background(), c, latency.NewModel(), N3D3())
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Blocks.Flatten().Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		if linalg.GlobalPhaseDistance(want, got) > 1e-8 {
			t.Fatalf("seed %d: partitioning changed the unitary", seed)
		}
	}
}

func TestDepth5MergesMoreThanDepth3(t *testing.T) {
	c := randomCircuit(3, 6, 80)
	g3 := Partition(c, 3, 3)
	g5 := Partition(c, 3, 5)
	if len(g5) > len(g3) {
		t.Errorf("depth 5 made more groups (%d) than depth 3 (%d)", len(g5), len(g3))
	}
}

func TestCompileProducesPulsesAndMetrics(t *testing.T) {
	c := randomCircuit(1, 5, 40)
	res, err := CompileCtx(context.Background(), c, latency.NewModel(), N3D5())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.NumBlocks == 0 {
		t.Errorf("degenerate result %+v", res)
	}
	if res.ESP <= 0 || res.ESP > 1 {
		t.Errorf("ESP %g", res.ESP)
	}
	for _, b := range res.Blocks.Blocks {
		if b.Gen == nil {
			t.Fatal("block missing pulses")
		}
	}
	if res.CompileCost <= 0 {
		t.Error("compile cost missing")
	}
}

func TestGroupingBeatsPerGateLatency(t *testing.T) {
	// The whole point of the customized-gate approach: grouped pulses
	// beat the fixed-gate (one pulse per gate) lower bound.
	c := randomCircuit(2, 5, 50)
	model := latency.NewModel()
	res, err := CompileCtx(context.Background(), c, model, N3D3())
	if err != nil {
		t.Fatal(err)
	}
	perGate, err := CompileCtx(context.Background(), c, latency.NewModel(), Options{MaxQubits: 3, Depth: 1, FidelityTarget: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency >= perGate.Latency {
		t.Errorf("grouped latency %.1f not below per-gate %.1f", res.Latency, perGate.Latency)
	}
}

func TestConstructionOrderVisitsAll(t *testing.T) {
	c := randomCircuit(4, 5, 40)
	bc := blocksFromGroups(c, Partition(c, 3, 3))
	order, _, err := constructionOrder(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(bc.Blocks) {
		t.Fatalf("order covers %d of %d blocks", len(order), len(bc.Blocks))
	}
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatal("duplicate in construction order")
		}
		seen[i] = true
	}
}

func BenchmarkPartition(b *testing.B) {
	c := randomCircuit(9, 10, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Partition(c, 3, 3)
	}
}

func BenchmarkCompileN3D3(b *testing.B) {
	c := randomCircuit(9, 6, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileCtx(context.Background(), c, latency.NewModel(), N3D3()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompileLeavesInputUntouched(t *testing.T) {
	// Blocks share gate slices with the input circuit (critical.Block),
	// so a compile must never edit a gate in place.
	c := randomCircuit(3, 4, 30)
	c.AddParam("rz", []float64{0.3}, 1)
	c.AddParam("u3", []float64{0.1, 0.2, 0.3}, 2)
	before := c.Clone()
	for _, opts := range []Options{N3D3(), N3D5()} {
		opts.Workers = 2
		if _, err := CompileCtx(context.Background(), c, latency.NewModel(), opts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, before) {
			t.Fatalf("depth %d: compile modified its input circuit", opts.Depth)
		}
	}
}
