package grape

import (
	"context"
	"fmt"
	"math"
	"time"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/latency"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

// Generator adapts GRAPE to the pulse.Generator interface used by PAQOC:
// it consolidates a customized gate into one unitary, consults the pulse
// database (exact and permuted hits return instantly; near misses warm the
// initial guess and start the duration search at their length), and
// otherwise runs the minimum-time search from the analytical model's
// duration estimate.
type Generator struct {
	Opts Options
	DB   *pulse.DB
	// Topo optionally restricts which qubit pairs of a customized gate are
	// XY-coupled (the device coupling graph). When nil, every pair within
	// the group is coupled.
	Topo *topology.Topology
	// System optionally builds the block Hamiltonian for n qubits with the
	// given local coupling pairs — the hook device profiles use to supply
	// their control bounds and error terms (device.Profile.SystemBuilder).
	// When nil, the paper's platform (hamiltonian.XYTransmon) is used.
	System func(n int, pairs [][2]int) *hamiltonian.System
	// Remote optionally consults a cross-replica pulse source on local DB
	// misses (cluster.Remote): the key's owner replica is asked before
	// paying for optimization, and fresh results are write-through
	// published to it. Best-effort — peer failures fall back to local
	// generation.
	Remote pulse.Remote
}

// NewGenerator returns a GRAPE-backed generator with a fresh pulse DB.
func NewGenerator(opts Options) *Generator {
	return &Generator{Opts: opts, DB: pulse.NewDB()}
}

// similarityDist bounds the pulse database's similarity search for
// warm-start initial guesses.
const similarityDist = 0.8

// convergenceSampleEvery thins the live convergence stream: one event per
// this many optimizer iterations (plus the first and the target-reaching
// point) keeps a 300-iteration run to ~a dozen events on the job ring.
const convergenceSampleEvery = 25

var (
	_ pulse.Generator  = (*Generator)(nil)
	_ pulse.DBProvider = (*Generator)(nil)
)

// PulseDB exposes the backing pulse database (may be nil).
func (g *Generator) PulseDB() *pulse.DB { return g.DB }

// GenerateCtx produces pulses for one customized gate, with observability:
// a "grape.generate" span per customized gate and counters for database
// reuse (exact, permuted, warm start, singleflight dedup) versus fresh
// optimizations.
//
// Concurrent calls sharing one DB are safe and deduplicated: workers that
// request the same canonical unitary while another worker is optimizing it
// block on that run instead of repeating it (pulse.DB.Do).
func (g *Generator) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fidelityTarget float64) (*pulse.Generated, error) {
	reg := obs.MetricsFrom(ctx)
	ctx, span := obs.StartSpan(ctx, "grape.generate")
	defer span.End()
	span.SetAttr("gate", cg.Describe())
	span.SetAttr("qubits", cg.NumQubits())

	u, err := cg.Unitary()
	if err != nil {
		return nil, fmt.Errorf("grape: %v", err)
	}
	if g.DB == nil {
		return g.generateOrFetch(ctx, cg, u, fidelityTarget)
	}

	generate := func() (*pulse.Generated, error) { return g.generateOrFetch(ctx, cg, u, fidelityTarget) }
	gen, perm, outcome, err := g.DB.Do(u, generate)
	if err != nil {
		return nil, err
	}
	switch outcome {
	case pulse.OutcomeGenerated:
		return gen, nil
	case pulse.OutcomeDeduped:
		reg.Counter("pulse.db_dedups").Inc()
		span.SetAttr("db", "deduped")
	}
	out := *gen
	out.CacheHit = true
	out.Cost = 0
	if perm == nil {
		if outcome == pulse.OutcomeHit {
			reg.Counter("grape.db_hits").Inc()
			span.SetAttr("db", "exact")
		}
		return &out, nil
	}
	// Permuted hit (§V-B): the stored schedule realizes the permuted
	// unitary, so reuse requires relabelling the control channels. If the
	// permuted channels don't all exist (coupling graphs differ),
	// regenerate under this gate's own canonical key — still deduplicated
	// against concurrent workers holding the same exact key.
	if sched := remapSchedule(gen.Schedule, perm, Couplings(g.Topo, cg)); sched != nil {
		out.Schedule = sched
		if outcome == pulse.OutcomePermuted {
			reg.Counter("grape.db_permuted_hits").Inc()
			span.SetAttr("db", "permuted")
		}
		return &out, nil
	}
	fresh, _, _, err := g.DB.DoExact(u, generate)
	return fresh, err
}

// generateOrFetch is the true-miss path, invoked at most once per
// canonical key when a DB coalesces callers: ask the key's owner replica
// first (a peer may already have paid for this optimization), and on a
// remote miss optimize locally and write-through-publish the result to
// the owner. Without a Remote this is exactly optimize.
func (g *Generator) generateOrFetch(ctx context.Context, cg *pulse.CustomGate, u *linalg.Matrix, fidelityTarget float64) (*pulse.Generated, error) {
	if g.Remote != nil {
		if got, ok := g.Remote.FetchPulse(ctx, u); ok {
			obs.MetricsFrom(ctx).Counter("grape.remote_hits").Inc()
			got.CacheHit = true
			got.Cost = 0
			return got, nil
		}
	}
	gen, err := g.optimize(ctx, cg, u, fidelityTarget)
	if err == nil && g.Remote != nil {
		g.Remote.PublishPulse(ctx, u, gen)
	}
	return gen, err
}

// optimize runs the warm-started minimum-time search for one unitary. It
// is invoked at most once per canonical key when a DB coalesces callers.
func (g *Generator) optimize(ctx context.Context, cg *pulse.CustomGate, u *linalg.Matrix, fidelityTarget float64) (*pulse.Generated, error) {
	reg := obs.MetricsFrom(ctx)
	opts := g.Opts
	opts.fill()
	if fidelityTarget > 0 {
		opts.TargetFidelity = fidelityTarget
	}
	// Larger groups navigate a bigger control landscape; give the
	// optimizer proportionally more iterations (3-qubit unitaries such as
	// Toffoli need roughly 3× the budget of a CX to converge).
	if n := cg.NumQubits(); n > 2 {
		opts.MaxIter *= n
	}
	sys := g.system(cg.NumQubits(), Couplings(g.Topo, cg))
	guess := alignGuess(sys, opts.InitialGuess)
	if g.DB != nil {
		if e, _, ok := g.DB.Nearest(u, similarityDist); ok {
			// Adopt the guess only when every control channel of this
			// system exists in the stored schedule (matched by name): a
			// hit recorded under a different coupling graph or profile
			// must not seed drive amps onto a coupler channel. An
			// all-zero schedule is not adopted either, nor is its length
			// taken as the prior. The warm_starts counter moves with the
			// check so it counts guesses actually applied, not Nearest
			// hits later rejected.
			if aligned := alignGuess(sys, e.Generated.Schedule); aligned != nil {
				guess = aligned
				// The cached entry's duration is the best prior for the
				// minimum-time bracket (§V-B): similar unitaries need
				// similar pulse lengths.
				opts.HintSlices = e.Generated.Schedule.NumSlices()
				reg.Counter("grape.warm_starts").Inc()
			}
		}
	}
	if opts.HintSlices == 0 {
		opts.HintSlices = PriorSlices(sys, g.Topo, cg)
	}

	// Live convergence streaming: when the context carries an event ring (a
	// server job with SSE subscribers), sample the optimizer's iterations
	// onto it — every convergenceSampleEvery-th point plus the first and any
	// target-reaching one, so the stream shows the curve without flooding
	// the bounded ring.
	if ring := obs.EventsFrom(ctx); ring != nil && opts.OnIteration == nil {
		gate := cg.Describe()
		targetFid := opts.TargetFidelity
		opts.OnIteration = func(p obs.ConvergencePoint) {
			if p.Iter == 1 || p.Iter%convergenceSampleEvery == 0 || p.Fidelity >= targetFid {
				ring.PublishConvergence(gate, p)
			}
		}
	}

	start := time.Now()
	reg.Counter("grape.generated").Inc()
	sched, latency, fid, err := minimumTime(ctx, sys, u, opts, guess)
	reg.HistogramVec(obs.StageMetric, obs.LatencyBuckets, "stage").
		WithLabelValues("grape").
		Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err != nil {
		return nil, err
	}
	return &pulse.Generated{
		Schedule: sched,
		Latency:  latency,
		Fidelity: fid,
		Error:    1 - fid,
		Cost:     time.Since(start).Seconds(),
	}, nil
}

// PriorSlices is a cold minimum-time search's first slice count for cg on
// sys: the analytical model's duration estimate under the system's own
// control bounds, rounded up to whole slices. topo restricts the coupled
// pairs as Generator.Topo does (nil couples every pair). On a model error
// it returns 0, and the search starts at its lower bound.
func PriorSlices(sys *hamiltonian.System, topo *topology.Topology, cg *pulse.CustomGate) int {
	model := latency.Model{Topo: topo, Params: sys.Params}
	est, err := model.Estimate(cg)
	if err != nil {
		return 0
	}
	return int(math.Ceil(est / sliceDt))
}

// system builds the block Hamiltonian via the configured builder, or the
// paper's platform when none is set.
func (g *Generator) system(n int, pairs [][2]int) *hamiltonian.System {
	if g.System != nil {
		return g.System(n, pairs)
	}
	return hamiltonian.XYTransmon(n, pairs)
}

// Couplings maps a customized gate's physical-qubit adjacency on topo onto
// its local wires: the coupled pairs of the block Hamiltonian the
// Generator optimizes against, and so the system its schedules replay on.
// A nil topo couples every pair.
func Couplings(topo *topology.Topology, cg *pulse.CustomGate) [][2]int {
	n := cg.NumQubits()
	if topo == nil {
		return hamiltonian.AllPairs(n)
	}
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if topo.Connected(cg.Qubits[a], cg.Qubits[b]) {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	if len(pairs) == 0 && n > 1 {
		// Disconnected groups cannot entangle; fall back to a chain so the
		// optimizer still has an interaction term (the framework should
		// never produce such groups, but stay robust).
		pairs = hamiltonian.LinearChain(n)
	}
	return pairs
}

// remapSchedule relabels a stored schedule's channels for a permuted-hit
// reuse: stored local qubit i plays the role of the new gate's local qubit
// perm[i]. The output channel order matches XYTransmon(n, pairs) for the
// new gate so it can be replayed directly on that system. Returns nil when
// a required channel does not exist in the stored schedule.
func remapSchedule(src *pulse.Schedule, perm []int, pairs [][2]int) *pulse.Schedule {
	if src == nil {
		return nil
	}
	byName := make(map[string][]float64, len(src.Channels))
	for k, name := range src.Channels {
		byName[name] = src.Amps[k]
	}
	// Build the target system's channel list.
	n := len(perm)
	sys := hamiltonian.XYTransmon(n, pairs)
	// inverse permutation: new qubit q ← stored qubit inv[q].
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	out := &pulse.Schedule{SliceDt: src.SliceDt}
	for _, c := range sys.Controls {
		var srcName string
		var q, a, b int
		switch {
		case scanChannel(c.Name, "d%d.x", &q):
			srcName = fmt.Sprintf("d%d.x", inv[q])
		case scanChannel(c.Name, "d%d.y", &q):
			srcName = fmt.Sprintf("d%d.y", inv[q])
		case scanChannel2(c.Name, &a, &b):
			sa, sb := inv[a], inv[b]
			if sa > sb {
				sa, sb = sb, sa
			}
			srcName = fmt.Sprintf("c%d.%d.xy", sa, sb)
		default:
			return nil
		}
		samples, ok := byName[srcName]
		if !ok {
			return nil
		}
		out.Channels = append(out.Channels, c.Name)
		out.Amps = append(out.Amps, append([]float64(nil), samples...))
	}
	return out
}

func scanChannel(name, format string, q *int) bool {
	var rest string
	k, err := fmt.Sscanf(name, format+"%s", q, &rest)
	if err == nil && k >= 1 && rest == "" {
		return true
	}
	// Sscanf with trailing %s fails on exact match; retry plain.
	k, err = fmt.Sscanf(name, format, q)
	return err == nil && k == 1 && fmt.Sprintf(format, *q) == name
}

func scanChannel2(name string, a, b *int) bool {
	k, err := fmt.Sscanf(name, "c%d.%d.xy", a, b)
	return err == nil && k == 2 && fmt.Sprintf("c%d.%d.xy", *a, *b) == name
}
