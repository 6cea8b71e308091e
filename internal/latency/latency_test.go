package latency

import (
	"context"
	"math"
	"sync"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

const pi4 = math.Pi / 4

func TestInteractionTimeFormula(t *testing.T) {
	// CX and iSWAP both need π/2 coupling-time units; SWAP needs 3π/4.
	if got := InteractionTime([3]float64{pi4, 0, 0}); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("CX time %g", got)
	}
	if got := InteractionTime([3]float64{pi4, pi4, 0}); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("iSWAP time %g", got)
	}
	if got := InteractionTime([3]float64{pi4, pi4, pi4}); math.Abs(got-3*math.Pi/4) > 1e-9 {
		t.Errorf("SWAP time %g", got)
	}
}

func mkGroup(gates ...circuit.Gate) *pulse.CustomGate { return pulse.NewCustomGate(gates) }

func gen(t *testing.T, m *Model, cg *pulse.CustomGate) *pulse.Generated {
	t.Helper()
	g, err := m.GenerateCtx(context.Background(), cg, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModelCalibrationAgainstGRAPE(t *testing.T) {
	// The model must stay within 25% of the GRAPE durations its constants
	// were fitted to (see the Model doc for what the current search
	// reaches).
	m := NewModel()
	cases := []struct {
		cg   *pulse.CustomGate
		want float64
	}{
		{mkGroup(circuit.Gate{Name: "x", Qubits: []int{0}}), 24},
		{mkGroup(circuit.Gate{Name: "h", Qubits: []int{0}}), 24},
		{mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}}), 80},
		{mkGroup(circuit.Gate{Name: "swap", Qubits: []int{0, 1}}), 96},
		{mkGroup(
			circuit.Gate{Name: "h", Qubits: []int{0}},
			circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
		), 80},
		{mkGroup(circuit.Gate{Name: "ccx", Qubits: []int{0, 1, 2}}), 192},
	}
	for _, tc := range cases {
		got := gen(t, m, tc.cg).Latency
		if got < tc.want*0.75 || got > tc.want*1.25 {
			t.Errorf("%s: latency %.1f, want ≈ %.1f", tc.cg.Describe(), got, tc.want)
		}
	}
}

func TestModelObservation1EqualWidth(t *testing.T) {
	// Observation 1: merging same-width gate sequences never exceeds the
	// sum of the parts.
	m := NewModel()
	pairs := [][2]*pulse.CustomGate{
		{
			mkGroup(circuit.Gate{Name: "h", Qubits: []int{0}}),
			mkGroup(circuit.Gate{Name: "t", Qubits: []int{0}}),
		},
		{
			mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}}),
			mkGroup(circuit.Gate{Name: "cx", Qubits: []int{1, 0}}),
		},
		{
			mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}}),
			mkGroup(circuit.Gate{Name: "cz", Qubits: []int{0, 1}}),
		},
	}
	for _, p := range pairs {
		lx := gen(t, m, p[0]).Latency
		ly := gen(t, m, p[1]).Latency
		merged := mkGroup(append(append([]circuit.Gate{}, p[0].Gates...), p[1].Gates...)...)
		lm := gen(t, m, merged).Latency
		if lm > lx+ly {
			t.Errorf("Obs1 violated: L(%s)=%.1f > %.1f+%.1f", merged.Describe(), lm, lx, ly)
		}
	}
}

func TestModelThreeCXMakeCheapSwap(t *testing.T) {
	// The QOC super-power the paper leans on: 3 sequential CX on one pair
	// compose into a SWAP whose pulse is far below 3 CX pulses.
	m := NewModel()
	cx := gen(t, m, mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}})).Latency
	three := mkGroup(
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
		circuit.Gate{Name: "cx", Qubits: []int{1, 0}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
	)
	merged := gen(t, m, three).Latency
	if merged > 1.6*cx {
		t.Errorf("merged 3xCX latency %.1f should be ≈ one SWAP (~1.2 CX), got vs CX=%.1f", merged, cx)
	}
	if merged > 3*cx*0.6 {
		t.Errorf("merged 3xCX latency %.1f not well below 3·CX=%.1f", merged, 3*cx)
	}
}

func TestModelObservation2WidthMonotone(t *testing.T) {
	// Observation 2: wider groups cost more (on representative gates).
	m := NewModel()
	l1 := gen(t, m, mkGroup(circuit.Gate{Name: "h", Qubits: []int{0}})).Latency
	l2 := gen(t, m, mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}})).Latency
	l3 := gen(t, m, mkGroup(circuit.Gate{Name: "ccx", Qubits: []int{0, 1, 2}})).Latency
	if !(l1 < l2 && l2 < l3) {
		t.Errorf("width monotonicity broken: %g, %g, %g", l1, l2, l3)
	}
}

func TestModelDeterminism(t *testing.T) {
	a := NewModel()
	b := NewModel()
	g := mkGroup(
		circuit.Gate{Name: "h", Qubits: []int{0}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
		circuit.Gate{Name: "rz", Params: []float64{0.3}, Qubits: []int{1}},
	)
	ga := gen(t, a, g)
	gb := gen(t, b, g)
	if ga.Latency != gb.Latency || ga.Error != gb.Error || ga.Cost != gb.Cost {
		t.Error("model is not deterministic across instances")
	}
}

func TestModelCacheAndCost(t *testing.T) {
	m := NewModel()
	g := mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}})
	first := gen(t, m, g)
	if first.CacheHit || first.Cost <= 0 {
		t.Error("first generation should miss with positive cost")
	}
	second := gen(t, m, g)
	if !second.CacheHit || second.Cost != 0 {
		t.Error("second generation should be a free cache hit")
	}
}

func TestModelFidelityContract(t *testing.T) {
	m := NewModel()
	g := gen(t, m, mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}}))
	if g.Fidelity < 0.999 {
		t.Errorf("fidelity %.6f below target", g.Fidelity)
	}
	if math.Abs(g.Error-(1-g.Fidelity)) > 1e-12 {
		t.Error("Error != 1 - Fidelity")
	}
}

func TestModelRelayPenalty(t *testing.T) {
	// A 3-qubit group whose heavy pair is not device-coupled should cost
	// more than the same group on a fully-coupled device.
	gates := []circuit.Gate{
		{Name: "cx", Qubits: []int{0, 2}},
		{Name: "cx", Qubits: []int{0, 1}},
		{Name: "cx", Qubits: []int{1, 2}},
	}
	full := NewModel() // nil topo → all coupled
	lFull := gen(t, full, mkGroup(gates...)).Latency

	line := NewModel()
	line.Topo = topology.Line(3) // 0-1-2: pair (0,2) uncoupled
	lLine := gen(t, line, mkGroup(gates...)).Latency
	if lLine <= lFull {
		t.Errorf("relay penalty missing: line %.1f <= full %.1f", lLine, lFull)
	}
}

func TestModelRejectsWideGroups(t *testing.T) {
	m := NewModel()
	g := mkGroup(
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
		circuit.Gate{Name: "cx", Qubits: []int{2, 3}},
	)
	if _, err := m.GenerateCtx(context.Background(), g, 0.999); err == nil {
		t.Error("4-qubit group should be rejected")
	}
}

func TestModelIdentityGroupNearFree(t *testing.T) {
	m := NewModel()
	g := mkGroup(
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
	)
	if lat := gen(t, m, g).Latency; lat > 20 {
		t.Errorf("CX·CX = identity should be near-free, got %.1f dt", lat)
	}
}

func BenchmarkModelGenerate(b *testing.B) {
	g := mkGroup(
		circuit.Gate{Name: "h", Qubits: []int{0}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewModel()
		if _, err := m.GenerateCtx(context.Background(), g, 0.999); err != nil {
			b.Fatal(err)
		}
	}
}

// mergedBlocks returns a two- and a three-qubit merge of the kind the
// search ranks: fixed and parameterized gates on non-adjacent physical
// qubits.
func mergedBlocks() []struct {
	name string
	cg   *pulse.CustomGate
} {
	return []struct {
		name string
		cg   *pulse.CustomGate
	}{
		{"2q", mkGroup(
			circuit.Gate{Name: "h", Qubits: []int{3}},
			circuit.Gate{Name: "cx", Qubits: []int{3, 7}},
			circuit.Gate{Name: "rz", Params: []float64{0.3}, Qubits: []int{7}},
			circuit.Gate{Name: "cx", Qubits: []int{3, 7}},
			circuit.Gate{Name: "cp", Params: []float64{math.Pi / 8}, Qubits: []int{7, 3}},
		)},
		{"3q", mkGroup(
			circuit.Gate{Name: "cx", Qubits: []int{3, 7}},
			circuit.Gate{Name: "rz", Params: []float64{0.7}, Qubits: []int{7}},
			circuit.Gate{Name: "cx", Qubits: []int{7, 8}},
			circuit.Gate{Name: "h", Qubits: []int{8}},
			circuit.Gate{Name: "cp", Params: []float64{math.Pi / 4}, Qubits: []int{3, 8}},
			circuit.Gate{Name: "ccx", Qubits: []int{3, 7, 8}},
		)},
	}
}

// BenchmarkModelEstimate times one ranking probe (LatencyCtx) on a merged
// block with a warm model, whose Weyl memo already holds the block's
// two-qubit gates.
func BenchmarkModelEstimate(b *testing.B) {
	for _, bb := range mergedBlocks() {
		b.Run(bb.name, func(b *testing.B) {
			m := NewModel()
			ctx := context.Background()
			if _, err := m.LatencyCtx(ctx, bb.cg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.LatencyCtx(ctx, bb.cg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEstimateAllocations pins the allocations of one warm estimate of the
// three-qubit merged block at 15 (84 when each gate was cloned, copied,
// embedded and multiplied into fresh matrices): the unitary's three 8×8
// matrices, gate list and local wires (8), the rz and cp matrices for the
// unitary (4), rz's again for the rotation load (2), and the key (1).
func TestEstimateAllocations(t *testing.T) {
	const want = 15
	cg := mergedBlocks()[1].cg
	m := NewModel()
	if _, err := m.Estimate(cg); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { m.Estimate(cg) }); got > want {
		t.Errorf("Estimate of a warm three-qubit block allocates %v times, want at most %d", got, want)
	}
}

func TestModelPermutedHitLatencyIsGatePure(t *testing.T) {
	// cx(0,1) and cx(1,0) are permutation twins: generating one and then
	// requesting the other must return exactly what a fresh model computes
	// for the request, not the stored twin's estimate — otherwise the
	// reported latency would depend on generation order, which is
	// scheduling-dependent under the worker pool.
	shared := NewModel()
	gen(t, shared, mkGroup(circuit.Gate{Name: "cx", Qubits: []int{0, 1}}))
	hit := gen(t, shared, mkGroup(circuit.Gate{Name: "cx", Qubits: []int{1, 0}}))
	if !hit.CacheHit || hit.Cost != 0 {
		t.Fatal("expected a permuted cache hit")
	}
	fresh := gen(t, NewModel(), mkGroup(circuit.Gate{Name: "cx", Qubits: []int{1, 0}}))
	if hit.Latency != fresh.Latency || hit.Error != fresh.Error {
		t.Errorf("permuted hit echoed the stored twin: hit %v/%v, fresh %v/%v",
			hit.Latency, hit.Error, fresh.Latency, fresh.Error)
	}
}

func TestModelConcurrentGenerateMatchesSerial(t *testing.T) {
	// Ranking probes share one Model (its Weyl cache and pulse DB) across
	// the worker pool when paqoc.Config.Workers > 1.
	var groups []*pulse.CustomGate
	for i := 0; i < 12; i++ {
		th := float64(i) * 0.37
		groups = append(groups,
			mkGroup(circuit.Gate{Name: "rz", Params: []float64{th}, Qubits: []int{0}}),
			mkGroup(
				circuit.Gate{Name: "cx", Qubits: []int{i % 2, 1 - i%2}},
				circuit.Gate{Name: "rz", Params: []float64{th}, Qubits: []int{1}},
				circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
			),
			mkGroup(
				circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
				circuit.Gate{Name: "ry", Params: []float64{th}, Qubits: []int{2}},
				circuit.Gate{Name: "cx", Qubits: []int{1, 2}},
				circuit.Gate{Name: "cx", Qubits: []int{0, 2}},
			),
		)
	}
	serial := make([]float64, len(groups))
	ref := NewModel()
	for i, g := range groups {
		serial[i] = gen(t, ref, g).Latency
	}

	shared := NewModel()
	const workers = 8
	got := make([][]float64, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]float64, len(groups))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range groups {
				i := (k + w*5) % len(groups) // different orders per goroutine
				g, err := shared.GenerateCtx(context.Background(), groups[i], 0.999)
				if err != nil {
					errs <- err
					return
				}
				got[w][i] = g.Latency
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range got {
		for i := range groups {
			if got[w][i] != serial[i] {
				t.Errorf("goroutine %d, %s: latency %v, serial %v", w, groups[i].Describe(), got[w][i], serial[i])
			}
		}
	}
}
