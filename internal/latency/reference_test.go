package latency

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
	"paqoc/internal/route"
	"paqoc/internal/topology"
	"paqoc/internal/transpile"
)

// refModel is the analytical model's estimate and generation path as
// first written, kept as the oracle for the allocation-light one: every
// gate cloned onto local wires through a map, each gate's unitary copied,
// a fresh embedding and product per gate, maps for the pair and rotation
// loads, hash/fnv over the key's bytes, and two-qubit gates keyed through
// their canonical unitary on every probe. It shares only the model's
// bounds, topology and cost, which are unchanged, and keeps its own Weyl
// cache and pulse database.
type refModel struct {
	m         *Model
	db        *pulse.DB
	weylCache map[string][3]float64
}

func newRefModel(m *Model) *refModel {
	return &refModel{m: m, db: pulse.NewDB(), weylCache: map[string][3]float64{}}
}

// refLocalGates re-indexes the gates onto local wires 0..NumQubits-1.
func refLocalGates(cg *pulse.CustomGate) []circuit.Gate {
	idx := make(map[int]int, len(cg.Qubits))
	for i, q := range cg.Qubits {
		idx[q] = i
	}
	out := make([]circuit.Gate, len(cg.Gates))
	for i, g := range cg.Gates {
		ng := g.Clone()
		for j, q := range ng.Qubits {
			ng.Qubits[j] = idx[q]
		}
		out[i] = ng
	}
	return out
}

// refUnitary composes the group's unitary on its local wires.
func refUnitary(cg *pulse.CustomGate) (*linalg.Matrix, error) {
	ops := make([]quantum.EmbeddedOp, 0, len(cg.Gates))
	for _, g := range refLocalGates(cg) {
		u, err := g.Unitary()
		if err != nil {
			return nil, err
		}
		ops = append(ops, quantum.EmbeddedOp{U: u, Wires: g.Qubits})
	}
	total := linalg.Identity(1 << cg.NumQubits())
	for _, op := range ops {
		total = quantum.Embed(op.U, op.Wires, cg.NumQubits()).Mul(total)
	}
	return total, nil
}

// refHash01 maps a string deterministically into [0, 1).
func refHash01(s string) float64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return float64(h.Sum64()%1e9) / 1e9
}

func (r *refModel) Estimate(cg *pulse.CustomGate) (float64, error) {
	u, err := refUnitary(cg)
	if err != nil {
		return 0, err
	}
	return r.estimate(cg, u, pulse.CanonicalKey(u))
}

func (r *refModel) GenerateCtx(_ context.Context, cg *pulse.CustomGate, fidelityTarget float64) (*pulse.Generated, error) {
	u, err := refUnitary(cg)
	if err != nil {
		return nil, err
	}
	gen, _, outcome, err := r.db.Do(u, func() (*pulse.Generated, error) {
		return r.synthesize(cg, u, fidelityTarget, true)
	})
	if err != nil {
		return nil, err
	}
	if outcome == pulse.OutcomeGenerated {
		return gen, nil
	}
	out, err := r.synthesize(cg, u, fidelityTarget, false)
	if err != nil {
		return nil, err
	}
	out.CacheHit = true
	out.Cost = 0
	return out, nil
}

func (r *refModel) synthesize(cg *pulse.CustomGate, u *linalg.Matrix, fidelityTarget float64, useDB bool) (*pulse.Generated, error) {
	key := pulse.CanonicalKey(u)
	if fidelityTarget <= 0 {
		fidelityTarget = 0.999
	}
	lat, err := r.estimate(cg, u, key)
	if err != nil {
		return nil, err
	}
	eps := (1 - fidelityTarget) * (0.35 + 0.5*refHash01(key+"/err"))
	if eps < 1e-7 {
		eps = 1e-7
	}
	cost := r.m.cost(cg.NumQubits(), lat)
	if useDB {
		if _, _, ok := r.db.Nearest(u, similarityDist); ok {
			cost *= 0.35
		}
	}
	return &pulse.Generated{Latency: lat, Fidelity: 1 - eps, Error: eps, Cost: cost}, nil
}

func (r *refModel) estimate(cg *pulse.CustomGate, u *linalg.Matrix, key string) (float64, error) {
	jitter := 1 + jitterSpan*(refHash01(key)-0.5)
	switch cg.NumQubits() {
	case 1:
		half := cmplx.Abs(u.Trace()) / 2
		if half > 1 {
			half = 1
		}
		angle := 2 * math.Acos(half)
		return baseOverhead1Q + jitter*angle/r.m.driveBound(), nil
	case 2:
		c, err := r.weyl(key, u)
		if err != nil {
			return 0, err
		}
		tInt := InteractionTime(c) / r.m.couplingBound()
		locals := echoLocalCost * LocalContent(c) / (math.Pi / 4)
		locals += residualLocal * r.rotationLoad(cg)
		return baseOverhead2Q + jitter*(tInt+locals), nil
	case 3:
		return r.estimate3Q(cg, jitter)
	default:
		return 0, fmt.Errorf("latency: %d-qubit groups unsupported (the model estimates at most %d)", cg.NumQubits(), MaxQubits)
	}
}

func (r *refModel) estimate3Q(cg *pulse.CustomGate, jitter float64) (float64, error) {
	type pair [2]int
	load := map[pair]float64{}
	addLoad := func(a, b int, v float64) {
		if a > b {
			a, b = b, a
		}
		load[pair{a, b}] += v
	}
	pairCap := 3*math.Pi/4/r.m.couplingBound() + 2*echoLocalCost
	for _, g := range refLocalGates(cg) {
		switch g.Arity() {
		case 2:
			u, err := g.Unitary()
			if err != nil {
				return 0, err
			}
			c, err := r.weyl(pulse.CanonicalKey(u), u)
			if err != nil {
				return 0, err
			}
			t := InteractionTime(c)/r.m.couplingBound() +
				echoLocalCost*LocalContent(c)/(math.Pi/4)
			addLoad(g.Qubits[0], g.Qubits[1], t)
		case 3:
			cxT := math.Pi/2/r.m.couplingBound() + echoLocalCost
			for _, p := range [][2]int{{g.Qubits[0], g.Qubits[1]}, {g.Qubits[0], g.Qubits[2]}, {g.Qubits[1], g.Qubits[2]}} {
				addLoad(p[0], p[1], 2*cxT)
			}
		}
	}
	for p, v := range load {
		if v > pairCap {
			v = pairCap
		}
		if !r.m.coupled(cg, p[0], p[1]) {
			v *= relayFactor
		}
		load[p] = v
	}
	var qubitLoad [3]float64
	for p, v := range load {
		qubitLoad[p[0]] += v
		qubitLoad[p[1]] += v
	}
	busiest := math.Max(qubitLoad[0], math.Max(qubitLoad[1], qubitLoad[2]))
	locals := residualLocal * r.rotationLoad(cg)
	return baseOverhead3Q + jitter*(threeQSerial*busiest+locals), nil
}

func (r *refModel) rotationLoad(cg *pulse.CustomGate) float64 {
	loads := make(map[int]float64)
	for _, g := range refLocalGates(cg) {
		if g.Arity() != 1 {
			continue
		}
		u, err := g.Unitary()
		if err != nil {
			continue
		}
		half := cmplx.Abs(u.Trace()) / 2
		if half > 1 {
			half = 1
		}
		loads[g.Qubits[0]] += 2 * math.Acos(half)
	}
	var mx float64
	for _, v := range loads {
		if v > mx {
			mx = v
		}
	}
	return mx / r.m.driveBound()
}

func (r *refModel) weyl(key string, u *linalg.Matrix) ([3]float64, error) {
	if c, ok := r.weylCache[key]; ok {
		return c, nil
	}
	c, err := WeylCoordinates(u)
	if err != nil {
		return c, err
	}
	r.weylCache[key] = c
	return c, nil
}

// outcome is one call's result, with a panic or an error as text, so two
// paths compare with ==.
type outcome struct {
	lat, fid, eps, cost uint64
	hit                 bool
	err                 string
}

func (o outcome) String() string {
	return fmt.Sprintf("latency %v fidelity %v error %v cost %v hit %v err %q",
		math.Float64frombits(o.lat), math.Float64frombits(o.fid), math.Float64frombits(o.eps),
		math.Float64frombits(o.cost), o.hit, o.err)
}

func estimateOutcome(f func() (float64, error)) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = outcome{err: fmt.Sprint("panic: ", p)}
		}
	}()
	lat, err := f()
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{lat: math.Float64bits(lat)}
}

func generateOutcome(f func() (*pulse.Generated, error)) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = outcome{err: fmt.Sprint("panic: ", p)}
		}
	}()
	g, err := f()
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{
		lat: math.Float64bits(g.Latency), fid: math.Float64bits(g.Fidelity),
		eps: math.Float64bits(g.Error), cost: math.Float64bits(g.Cost), hit: g.CacheHit,
	}
}

// pairCheck runs one block through a model and its reference, Estimate
// and then GenerateCtx, and fails on any difference in bits or error.
type pairCheck struct {
	t   *testing.T
	m   *Model
	ref *refModel
	n   int
}

func newPairCheck(t *testing.T, topo *topology.Topology) *pairCheck {
	m := NewModel()
	m.Topo = topo
	return &pairCheck{t: t, m: m, ref: newRefModel(m.withoutState())}
}

// withoutState returns a model with m's bounds and topology and none of
// its caches, for the reference to read.
func (m *Model) withoutState() *Model {
	return &Model{Topo: m.Topo, Params: m.Params}
}

func (p *pairCheck) check(cg *pulse.CustomGate) outcome {
	p.t.Helper()
	p.n++
	got := estimateOutcome(func() (float64, error) { return p.m.Estimate(cg) })
	want := estimateOutcome(func() (float64, error) { return p.ref.Estimate(cg) })
	if got != want {
		p.t.Fatalf("block %d %s: Estimate %v, reference %v", p.n, cg.Describe(), got, want)
	}
	ctx := context.Background()
	gotG := generateOutcome(func() (*pulse.Generated, error) { return p.m.GenerateCtx(ctx, cg, 0.999) })
	wantG := generateOutcome(func() (*pulse.Generated, error) { return p.ref.GenerateCtx(ctx, cg, 0.999) })
	if gotG != wantG {
		p.t.Fatalf("block %d %s: GenerateCtx %v, reference %v", p.n, cg.Describe(), gotG, wantG)
	}
	return got
}

// gateKinds lists every gate of the table with its arity and parameter
// count.
var gateKinds = []struct {
	name          string
	arity, params int
}{
	{"id", 1, 0}, {"x", 1, 0}, {"y", 1, 0}, {"z", 1, 0}, {"h", 1, 0},
	{"s", 1, 0}, {"sdg", 1, 0}, {"t", 1, 0}, {"tdg", 1, 0}, {"sx", 1, 0},
	{"rx", 1, 1}, {"ry", 1, 1}, {"rz", 1, 1}, {"u1", 1, 1}, {"u2", 1, 2}, {"u3", 1, 3},
	{"cx", 2, 0}, {"cz", 2, 0}, {"swap", 2, 0}, {"iswap", 2, 0},
	{"cp", 2, 1}, {"cphase", 2, 1}, {"cu1", 2, 1}, {"crz", 2, 1},
	{"ccx", 3, 0}, {"toffoli", 3, 0}, {"ccz", 3, 0}, {"cswap", 3, 0},
}

// randomGateBlock draws a block of up to eight gates on up to three of the
// physical qubits 0..5. Angles repeat often, so two-qubit gates hit the
// Weyl memo; about one block in thirty carries a symbolic, unknown or
// mis-parameterized gate, or a gate short of a qubit, which panics.
func randomGateBlock(rng *rand.Rand) *pulse.CustomGate {
	qs := rng.Perm(6)[:1+rng.Intn(3)]
	angles := []float64{math.Pi / 4, math.Pi / 2, -math.Pi / 8, 0.3, math.Copysign(0, -1)}
	angle := func() float64 {
		if rng.Intn(2) == 0 {
			return angles[rng.Intn(len(angles))]
		}
		return (rng.Float64()*2 - 1) * 2 * math.Pi
	}
	var gates []circuit.Gate
	for len(gates) < 1+rng.Intn(8) {
		k := gateKinds[rng.Intn(len(gateKinds))]
		if k.arity > len(qs) {
			continue
		}
		g := circuit.Gate{Name: k.name}
		for _, i := range rng.Perm(len(qs))[:k.arity] {
			g.Qubits = append(g.Qubits, qs[i])
		}
		for i := 0; i < k.params; i++ {
			g.Params = append(g.Params, angle())
		}
		if rng.Intn(200) == 0 {
			switch rng.Intn(4) {
			case 0:
				g.Symbol, g.Params = "theta", nil
			case 1:
				g.Name = "frobnicate"
			case 2:
				g.Params = append(g.Params, 1)
			case 3:
				g.Qubits = g.Qubits[:len(g.Qubits)-1]
			}
		}
		gates = append(gates, g)
	}
	return pulse.NewCustomGate(gates)
}

// TestEstimateMatchesReference requires the model to give the
// reference's latency, fidelity, error, cost and cache hit bit for bit,
// and its error text for bad gates: on 10,000 random 1–3-qubit blocks
// over every gate kind, on three topologies, and on every block a
// critical-path search ranks on routed qft.
func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	topos := []*topology.Topology{nil, topology.Line(6), topology.Grid(2, 3)}
	checks := make([]*pairCheck, len(topos))
	for i, topo := range topos {
		checks[i] = newPairCheck(t, topo)
	}
	errs, panics := 0, 0
	for i := 0; i < 10000; i++ {
		p := checks[i%len(checks)]
		switch o := p.check(randomGateBlock(rng)); {
		case strings.HasPrefix(o.err, "panic: "):
			panics++
		case o.err != "":
			errs++
		}
	}
	if errs == 0 || panics == 0 {
		t.Errorf("%d random blocks returned an error and %d panicked; want some of each", errs, panics)
	}
	// A bad gate's error comes before an earlier gate's bad wires panic.
	for _, gates := range [][]circuit.Gate{
		{{Name: "cx", Qubits: []int{0}}, {Name: "rz", Qubits: []int{1}, Symbol: "theta"}},
		{{Name: "h", Qubits: []int{0, 1}}, {Name: "frobnicate", Qubits: []int{1}}},
		{{Name: "ccx", Qubits: []int{0, 1}}, {Name: "rx", Qubits: []int{1}}},
	} {
		cg := pulse.NewCustomGate(gates)
		if o := checks[0].check(cg); o.err == "" || strings.HasPrefix(o.err, "panic: ") {
			t.Errorf("%s: %v, want the later gate's error", cg.Describe(), o)
		}
	}

	qft := newPairCheck(t, topology.Grid(5, 5))
	searchQFT(t, func(cg *pulse.CustomGate) (float64, error) {
		o := qft.check(cg)
		return math.Float64frombits(o.lat), nil
	})
	t.Logf("10000 random blocks (%d errors, %d panics), %d qft blocks", errs, panics, qft.n)
}

// searchQFT ranks merges on qft routed onto a 5×5 grid the way the
// critical-path search does: single-gate blocks, the Observation-1
// merges to a fixed point, then every new candidate pair of each round,
// applying the first candidate that shortens the critical path, until
// none does. Each candidate pair is ranked once.
func searchQFT(t *testing.T, est func(*pulse.CustomGate) (float64, error)) {
	const maxN = 3
	spec, _ := bench.ByName("qft")
	phys, _, err := transpile.ToPhysical(spec.Build(), topology.Grid(5, 5), route.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bc, err := critical.FromCircuit(phys, est)
	if err != nil {
		t.Fatal(err)
	}
	merge := func(i, j int, lat float64) {
		bc.ReplaceMerge(i, j, critical.Merge(bc.Blocks[i], bc.Blocks[j]), lat, nil)
	}
	ranked := map[[2]*critical.Block]float64{}
	for {
		for start := 0; ; {
			c, ok := bc.PreprocessMerge(maxN, start)
			if !ok || !bc.ValidMerge(c.I, c.J, maxN) {
				break
			}
			start = bc.PreprocessResume(c.I, c.J)
			lat, _ := est(critical.Merge(bc.Blocks[c.I], bc.Blocks[c.J]).Custom())
			merge(c.I, c.J, lat)
		}
		cands := bc.Candidates(maxN, true)
		labs := make([]float64, len(cands))
		for ci, c := range cands {
			key := [2]*critical.Block{bc.Blocks[c.I], bc.Blocks[c.J]}
			lab, ok := ranked[key]
			if !ok {
				lab, _ = est(critical.Merge(bc.Blocks[c.I], bc.Blocks[c.J]).Custom())
				ranked[key] = lab
			}
			labs[ci] = lab
		}
		cp := bc.CriticalPath()
		applied := false
		for ci, c := range cands {
			if bc.ValidMerge(c.I, c.J, maxN) && bc.CPIfMerged(c.I, c.J, labs[ci]) < cp-1e-9 {
				merge(c.I, c.J, labs[ci])
				applied = true
				break
			}
		}
		if !applied {
			return
		}
	}
}

// TestEstimateConcurrentMatchesSerial calls Estimate on one model from
// several goroutines, each in its own order, over three-qubit blocks whose
// two-qubit gates share the Weyl memo; run under -race it checks the memo's
// locking. Every goroutine must see the serial latencies.
func TestEstimateConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var blocks []*pulse.CustomGate
	for len(blocks) < 60 {
		if cg := randomGateBlock(rng); cg.NumQubits() == 3 {
			blocks = append(blocks, cg)
		}
	}
	ref := NewModel()
	serial := make([]outcome, len(blocks))
	for i, cg := range blocks {
		serial[i] = estimateOutcome(func() (float64, error) { return ref.Estimate(cg) })
	}
	shared := NewModel()
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range blocks {
				i := (k*7 + w*11) % len(blocks)
				cg := blocks[i]
				if got := estimateOutcome(func() (float64, error) { return shared.Estimate(cg) }); got != serial[i] {
					t.Errorf("goroutine %d, %s: %v, serial %v", w, cg.Describe(), got, serial[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
