package latency

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"paqoc/internal/circuit"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

// Model is the analytical latency generator (§III-B): a deterministic,
// calibrated surrogate for GRAPE used when sweeping whole benchmark suites,
// where running the numerical optimizer for every ranking probe would be
// prohibitive (the paper itself ranks with an analytical model and only
// invokes GRAPE when §V-A requires an actual probe). The calibration
// constants were fitted to durations of an earlier internal/grape search
// on this repository's platform (X ≈ 24 dt, H ≈ 24 dt, CX ≈ 80 dt,
// iSWAP ≈ 60 dt, SWAP ≈ 96 dt, CCX ≈ 192 dt), which
// TestModelCalibrationAgainstGRAPE holds the estimates to within 25%.
// The current search, started from these estimates, reaches 24, 24, 72,
// 56, 84 and 104 dt at 0.999 with every pair coupled: the model
// overestimates two- and three-qubit gates (EXPERIMENTS.md, "Calibration
// against the current search").
type Model struct {
	DB   *pulse.DB
	Topo *topology.Topology
	// Params carries the target backend's control parameters. The zero
	// value falls back to the paper's platform (hamiltonian.DefaultParams),
	// so existing call sites keep their exact behaviour.
	Params hamiltonian.Params

	// mu guards both Weyl memos: the ranker shares one Model across the
	// worker pool when paqoc.Config.Workers > 1.
	mu        sync.Mutex
	weylCache map[string][3]float64
	// gateWeylMemo holds each two-qubit gate's entry of weylCache by name
	// and parameter bits, so a block's gates skip their unitary and key.
	// Created on first use.
	gateWeylMemo map[gateKey][3]float64
}

// gateKey names a concrete gate by its name and parameter bits.
type gateKey struct {
	name   string
	params int
	p0     uint64
}

// driveBound returns the backend's single-qubit drive limit in rad/dt.
func (m *Model) driveBound() float64 {
	if m.Params.IsZero() {
		return hamiltonian.DriveBound
	}
	return m.Params.DriveBound()
}

// couplingBound returns the backend's two-qubit coupling limit in rad/dt.
func (m *Model) couplingBound() float64 {
	if m.Params.IsZero() {
		return hamiltonian.CouplingBound
	}
	return m.Params.CouplingBound()
}

// MaxQubits is the widest customized gate the model estimates: the
// evaluation's maxN (§VI-c). Every search ranks merges with the model, so
// no compile can use a wider cap.
const MaxQubits = 3

// Calibration constants (dt units unless noted).
const (
	baseOverhead1Q = 3.0  // pulse ramp overhead, single-qubit gates
	baseOverhead2Q = 6.0  // two-qubit groups
	baseOverhead3Q = 10.0 // three-qubit groups
	echoLocalCost  = 24.0 // extra locals when c1 ≠ c2 forces echo (CX-like)
	residualLocal  = 0.15 // fraction of 1q rotation load not absorbed
	threeQSerial   = 0.65 // overlap factor for 3-qubit interaction loads
	relayFactor    = 1.8  // penalty for interactions across non-coupled pairs
	jitterSpan     = 0.06 // deterministic per-unitary scatter (±6%)
	similarityDist = 0.8  // warm-start radius of the AccQOC-style cost discount
)

// NewModel returns a model generator with a fresh pulse database.
func NewModel() *Model {
	return &Model{DB: pulse.NewDB(), weylCache: make(map[string][3]float64)}
}

var (
	_ pulse.Generator  = (*Model)(nil)
	_ pulse.DBProvider = (*Model)(nil)
)

// PulseDB exposes the backing pulse database (may be nil).
func (m *Model) PulseDB() *pulse.DB { return m.DB }

// LatencyCtx returns the analytical latency estimate for a customized
// gate: the query Algorithm 1 ranks merges with. It consults no pulse
// database (the search reuses no pulses, so there is nothing to store or
// look up) and returns exactly the Latency GenerateCtx would report for
// the same gate. It counts latency.model.probes on the context's registry.
func (m *Model) LatencyCtx(ctx context.Context, cg *pulse.CustomGate) (float64, error) {
	obs.MetricsFrom(ctx).Counter("latency.model.probes").Inc()
	return m.Estimate(cg)
}

// Estimate is LatencyCtx without the probe count: the same estimate, for
// callers that are not ranking merges (the GRAPE minimum-time search
// starts from it), so latency.model.probes keeps counting Algorithm 1's
// probes only.
func (m *Model) Estimate(cg *pulse.CustomGate) (float64, error) {
	u, err := cg.Unitary()
	if err != nil {
		return 0, err
	}
	key := pulse.CanonicalKey(u)
	return m.estimate(cg, u, key, fnv1a(fnvOffset, key))
}

// GenerateCtx estimates the pulse for a customized gate without running
// QOC. The returned Generated carries no schedule; latency, error, and a
// synthetic compile cost (seconds a GRAPE run would have taken) are
// filled. Observability: it counts analytical probes
// and pulse-database hits on the context's metrics registry. Ranking
// probes are far too frequent for per-call spans, so the model emits
// counters only.
//
// Concurrent calls sharing one DB are safe: misses on the same canonical
// unitary are coalesced singleflight-style (pulse.DB.Do), matching the
// GRAPE generator's semantics so worker-pool emission can swap generators
// freely.
func (m *Model) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fidelityTarget float64) (*pulse.Generated, error) {
	reg := obs.MetricsFrom(ctx)
	reg.Counter("latency.model.probes").Inc()
	u, err := cg.Unitary()
	if err != nil {
		return nil, err
	}
	if m.DB == nil {
		return m.synthesize(cg, u, fidelityTarget, false)
	}
	gen, _, outcome, err := m.DB.Do(u, func() (*pulse.Generated, error) {
		return m.synthesize(cg, u, fidelityTarget, true)
	})
	if err != nil {
		return nil, err
	}
	if outcome == pulse.OutcomeGenerated {
		return gen, nil
	}
	if outcome == pulse.OutcomeDeduped {
		reg.Counter("pulse.db_dedups").Inc()
	} else {
		reg.Counter("latency.model.db_hits").Inc()
	}
	// Recompute the analytic estimate for this gate rather than echoing the
	// stored entry: entries carry the estimate of whichever block generated
	// the key first (a permuted twin, or a different decomposition of the
	// same canonical unitary), so returning them would make the reported
	// latency depend on generation order — nondeterministic under the
	// worker pool. The estimate is a pure function of the gate and cheap;
	// the reuse benefit is the zeroed cost.
	out, err := m.synthesize(cg, u, fidelityTarget, false)
	if err != nil {
		return nil, err
	}
	out.CacheHit = true
	out.Cost = 0
	return out, nil
}

// synthesize computes the analytical estimate for one unitary. useDB
// enables the AccQOC-style warm-start cost discount against the database.
func (m *Model) synthesize(cg *pulse.CustomGate, u *linalg.Matrix, fidelityTarget float64, useDB bool) (*pulse.Generated, error) {
	key := pulse.CanonicalKey(u)
	if fidelityTarget <= 0 {
		fidelityTarget = 0.999
	}
	h := fnv1a(fnvOffset, key)
	lat, err := m.estimate(cg, u, key, h)
	if err != nil {
		return nil, err
	}
	// The hash of key+"/err", continued from key's.
	eps := (1 - fidelityTarget) * (0.35 + 0.5*unit01(fnv1a(h, "/err")))
	if eps < 1e-7 {
		eps = 1e-7
	}
	cost := m.cost(cg.NumQubits(), lat)
	if useDB {
		if _, _, ok := m.DB.Nearest(u, similarityDist); ok {
			cost *= 0.35 // warm start à la AccQOC
		}
	}
	return &pulse.Generated{
		Latency:  lat,
		Fidelity: 1 - eps,
		Error:    eps,
		Cost:     cost,
	}, nil
}

// estimate dispatches on group width. h is key's FNV-1a hash.
func (m *Model) estimate(cg *pulse.CustomGate, u *linalg.Matrix, key string, h uint64) (float64, error) {
	jitter := 1 + jitterSpan*(unit01(h)-0.5)
	switch cg.NumQubits() {
	case 1:
		half := cmplx.Abs(u.Trace()) / 2
		if half > 1 {
			half = 1
		}
		angle := 2 * math.Acos(half)
		return baseOverhead1Q + jitter*angle/m.driveBound(), nil
	case 2:
		c, err := m.weyl(key, u)
		if err != nil {
			return 0, err
		}
		tInt := InteractionTime(c) / m.couplingBound()
		locals := echoLocalCost * LocalContent(c) / (math.Pi / 4)
		locals += residualLocal * m.rotationLoad(cg)
		return baseOverhead2Q + jitter*(tInt+locals), nil
	case 3:
		return m.estimate3Q(cg, jitter)
	default:
		return 0, fmt.Errorf("latency: %d-qubit groups unsupported (the model estimates at most %d)", cg.NumQubits(), MaxQubits)
	}
}

// estimate3Q serializes pair-interaction loads over the busiest qubit,
// mirroring how XY hardware must time-share couplings that meet at a qubit.
func (m *Model) estimate3Q(cg *pulse.CustomGate, jitter float64) (float64, error) {
	// load[a+b-1] accumulates interaction time on local pair a < b:
	// (0,1), (0,2) and (1,2).
	var load [3]float64
	addLoad := func(a, b int, v float64) {
		load[a+b-1] += v
	}

	// Interaction on one pair saturates like the two-qubit Weyl chamber:
	// no pair ever needs more than the SWAP-class time plus echo locals.
	pairCap := 3*math.Pi/4/m.couplingBound() + 2*echoLocalCost

	for _, g := range cg.Gates {
		switch len(g.Qubits) {
		case 1:
			// absorbed into residual local load below
		case 2:
			c, err := m.gateWeyl(g)
			if err != nil {
				return 0, err
			}
			t := InteractionTime(c)/m.couplingBound() +
				echoLocalCost*LocalContent(c)/(math.Pi/4)
			addLoad(cg.LocalWire(g.Qubits[0]), cg.LocalWire(g.Qubits[1]), t)
		case 3:
			// Pair profile of the standard decompositions: two CX on each
			// of the three pairs (Toffoli-family gates).
			cxT := math.Pi/2/m.couplingBound() + echoLocalCost
			a, b, c := cg.LocalWire(g.Qubits[0]), cg.LocalWire(g.Qubits[1]), cg.LocalWire(g.Qubits[2])
			addLoad(a, b, 2*cxT)
			addLoad(a, c, 2*cxT)
			addLoad(b, c, 2*cxT)
		}
	}

	// Saturate each pair's load, penalize non-device-coupled pairs, then
	// serialize over the busiest qubit. A pair with no load adds nothing.
	var qubitLoad [3]float64
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			v := load[a+b-1]
			if v == 0 {
				continue
			}
			if v > pairCap {
				v = pairCap
			}
			if !m.coupled(cg, a, b) {
				v *= relayFactor
			}
			qubitLoad[a] += v
			qubitLoad[b] += v
		}
	}
	busiest := math.Max(qubitLoad[0], math.Max(qubitLoad[1], qubitLoad[2]))
	locals := residualLocal * m.rotationLoad(cg)
	return baseOverhead3Q + jitter*(threeQSerial*busiest+locals), nil
}

// rotationLoad sums single-qubit rotation angles per qubit and returns the
// maximum, converted to drive time (dt). Blocks are at most MaxQubits wide.
func (m *Model) rotationLoad(cg *pulse.CustomGate) float64 {
	var loads [MaxQubits]float64
	for _, g := range cg.Gates {
		if len(g.Qubits) != 1 {
			continue
		}
		u, err := g.Matrix()
		if err != nil {
			continue
		}
		half := cmplx.Abs(u.Trace()) / 2
		if half > 1 {
			half = 1
		}
		loads[cg.LocalWire(g.Qubits[0])] += 2 * math.Acos(half)
	}
	var mx float64
	for _, v := range loads {
		if v > mx {
			mx = v
		}
	}
	return mx / m.driveBound()
}

func (m *Model) coupled(cg *pulse.CustomGate, la, lb int) bool {
	if m.Topo == nil {
		return true
	}
	return m.Topo.Connected(cg.Qubits[la], cg.Qubits[lb])
}

// gateWeyl returns a two-qubit gate's Weyl coordinates: what
// weyl(pulse.CanonicalKey(u), u) returns for the gate's own unitary u,
// memoized by gate so a repeat skips the unitary and its key.
func (m *Model) gateWeyl(g circuit.Gate) ([3]float64, error) {
	k := gateKey{name: g.Name, params: len(g.Params)}
	memo := !g.IsSymbolic() && len(g.Params) <= 1
	if memo {
		if len(g.Params) == 1 {
			k.p0 = math.Float64bits(g.Params[0])
		}
		m.mu.Lock()
		c, ok := m.gateWeylMemo[k]
		m.mu.Unlock()
		if ok {
			return c, nil
		}
	}
	u, err := g.Matrix()
	if err != nil {
		return [3]float64{}, err
	}
	c, err := m.weyl(pulse.CanonicalKey(u), u)
	if err != nil || !memo {
		return c, err
	}
	m.mu.Lock()
	if m.gateWeylMemo == nil {
		m.gateWeylMemo = make(map[gateKey][3]float64)
	}
	m.gateWeylMemo[k] = c
	m.mu.Unlock()
	return c, nil
}

// weyl memoizes Weyl coordinates by canonical key.
func (m *Model) weyl(key string, u *linalg.Matrix) ([3]float64, error) {
	m.mu.Lock()
	if m.weylCache == nil {
		m.weylCache = make(map[string][3]float64)
	}
	if c, ok := m.weylCache[key]; ok {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()
	c, err := WeylCoordinates(u)
	if err != nil {
		return c, err
	}
	m.mu.Lock()
	m.weylCache[key] = c
	m.mu.Unlock()
	return c, nil
}

// cost is the synthetic compile time, in seconds, that Figs. 11 and 14
// charge for generating a gate: slices × 40·2ⁿ iterations × dim³ × 1 µs.
// It is not fitted to internal/grape: for CX it charges 0.23 s and for
// CCX 7.6 s, where a cold minimum-time search measured 32–37 ms and
// 0.96–1.69 s (EXPERIMENTS.md, "Calibration against the current search").
func (m *Model) cost(nq int, lat float64) float64 {
	slices := lat / 4
	iters := 40.0 * float64(int(1)<<nq)
	dim3 := math.Pow(math.Pow(2, float64(nq)), 3)
	return 1e-6 * slices * iters * dim3
}

// FNV-1a, 64-bit (hash/fnv's New64a), written inline so hashing a key
// copies nothing and a suffix continues the hash of what precedes it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues the FNV-1a hash h over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// unit01 maps a hash deterministically into [0, 1).
func unit01(h uint64) float64 {
	return float64(h%1e9) / 1e9
}
