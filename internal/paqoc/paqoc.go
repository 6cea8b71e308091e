// Package paqoc is the top of the stack: the Program-Aware QOC pulse
// generation framework (Fig. 7). It wires together the frequent-subcircuits
// miner (APA-basis gates, §III-A), the criticality-aware customized gates
// generator (Algorithm 1, §V-A), and a control-pulse generator (GRAPE or
// the calibrated analytical model) with its pulse database (§V-B).
package paqoc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"paqoc/internal/circuit"
	"paqoc/internal/commute"
	"paqoc/internal/critical"
	"paqoc/internal/device"
	"paqoc/internal/engine"
	"paqoc/internal/latency"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
	"paqoc/internal/topology"
)

// MInf requests unlimited APA-basis gates (the paper's paqoc(M=inf)).
const MInf = -1

// MTuned lets the compiler pick M itself: mining.SelectTuned over the
// patterns it mines keeps the fewest APA-basis gates that cover over half
// the circuit (the paper's paqoc(M=tuned)).
const MTuned = -2

// maxIterations bounds Algorithm 1's outer loop (safety; the loop normally
// stops when no merge improves the critical path).
const maxIterations = 10000

// Config holds the user-facing knobs of §V-C.
type Config struct {
	// MaxN caps customized-gate width; the evaluation uses 3 (§VI-c).
	MaxN int
	// TopK is the number of merges applied per iteration (§V-A2).
	TopK int
	// M caps the number of APA-basis gates: 0 disables the miner
	// (paqoc(M=0)), MInf removes the limit (paqoc(M=inf)), MTuned picks
	// the limit from the mined patterns (paqoc(M=tuned)), positive values
	// select the top-M patterns by coverage.
	M int
	// MinSupport is the miner's recurrence threshold (default 2).
	MinSupport int
	// FidelityTarget is the per-customized-gate GRAPE fidelity (§VI-d sets
	// it "as high as possible" so the circuit ESP beats the baseline);
	// default 0.999.
	FidelityTarget float64
	// PruneCaseIII drops merges of two non-critical blocks (§V-A1).
	// Enabled by default via New.
	PruneCaseIII bool
	// ProbeCaseII asks the real generator (not just the analytical model)
	// for the latency of every merge the search applies, whatever its
	// case. §V-A prescribes the probe for Case II merges; probing only
	// applied merges keeps its cost proportional to merges performed.
	ProbeCaseII bool
	// Mining bounds the pattern search.
	Mining mining.Options
	// Preselected supplies offline-mined APA selections for the
	// online/offline split on parameterized circuits (§I contribution 5).
	Preselected []mining.Selection
	// Commute enables the commutativity-aware canonicalization pass
	// (internal/commute) before mining and merging — the CLS-inspired
	// extension the paper lists as future work (§VII). Off by default to
	// match the paper's evaluated configuration.
	Commute bool
	// Workers bounds the pulse-generation worker pool (internal/engine)
	// used by the emit stage and the ranking probes. 0 or 1 runs serially,
	// reproducing the single-threaded pipeline exactly; higher values fan
	// out across independent customized gates, with the shared pulse
	// database deduplicating concurrent GRAPE runs on the same unitary.
	Workers int
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		MaxN:           3,
		TopK:           1,
		M:              0,
		MinSupport:     2,
		FidelityTarget: 0.999,
		PruneCaseIII:   true,
		ProbeCaseII:    true,
		Mining:         mining.DefaultOptions(),
	}
}

// Result is the output of a compilation.
type Result struct {
	Blocks *critical.BlockCircuit
	// Latency is the final circuit latency: the weighted critical path of
	// the block DAG with generated pulse durations (dt).
	Latency float64
	// InitialLatency is the fixed-gate baseline: per-basis-gate pulses
	// stitched along the dependence DAG.
	InitialLatency float64
	// TotalLatency is the sequential sum of block pulse durations.
	TotalLatency float64
	// ESP is Eq. (2)'s estimated success probability.
	ESP float64
	// CompileCost sums online pulse-generation costs in (modelled)
	// seconds — the ~95% component of compilation time (§VI-B) — plus the
	// measured search time.
	CompileCost float64
	// OfflineCost is the pulse-generation cost of APA-basis gates, which
	// the offline component precomputes (§V-C, §I contribution 5): APA
	// pulses "only need to be calculated once" and are excluded from the
	// online compile time.
	OfflineCost float64
	// WallTime is the measured end-to-end compilation time.
	WallTime time.Duration
	// Iterations is the number of Algorithm 1 outer iterations executed.
	Iterations int
	// APASelections are the APA-basis gates used (empty when M = 0).
	APASelections []mining.Selection
	// NumBlocks is the number of customized gates in the output.
	NumBlocks int
}

// Compiler compiles physical circuits into pulses. A Compiler runs one
// Compile at a time (build one per goroutine for concurrent compilations —
// pulse databases are safe to share between them), and parallelizes inside
// a compilation when Config.Workers > 1.
type Compiler struct {
	// Gen generates the final (and Case II probe) pulses.
	Gen pulse.Generator
	// Ranker is the fast analytical estimator used by the search. It has
	// no pulse database: ranking probes only read its LatencyCtx.
	Ranker *latency.Model
	Cfg    Config

	probeCost float64 // Case II probe costs accumulated during optimize
}

// New builds a compiler around a pulse generator. If gen is nil, the
// analytical model serves as both ranker and generator (the configuration
// used for the paper-scale sweeps).
func New(gen pulse.Generator, topo *topology.Topology, cfg Config) *Compiler {
	ranker := &latency.Model{Topo: topo}
	if gen == nil {
		// A separate model instance with its own pulse database, which
		// emission alone fills: compile-cost accounting (Fig. 11) charges
		// each final pulse once, warm starts included.
		m := latency.NewModel()
		m.Topo = topo
		gen = m
	}
	if cfg.MaxN == 0 {
		cfg.MaxN = 3
	}
	if cfg.TopK == 0 {
		cfg.TopK = 1
	}
	if cfg.FidelityTarget == 0 {
		cfg.FidelityTarget = 0.999
	}
	return &Compiler{Gen: gen, Ranker: ranker, Cfg: cfg}
}

// NewForProfile builds a compiler targeting a device profile: the ranker
// (and, when gen is nil, the model generator) estimates against the
// profile's control bounds instead of the paper's constants. With the
// default profile it is equivalent to New(gen, prof.Topology(), cfg).
func NewForProfile(gen pulse.Generator, prof *device.Profile, cfg Config) *Compiler {
	cp := New(gen, prof.Topology(), cfg)
	cp.Ranker.Params = prof.Params()
	if m, ok := cp.Gen.(*latency.Model); ok {
		m.Params = prof.Params()
	}
	return cp
}

// workers returns the effective pool width: Config.Workers clamped to at
// least 1 (serial).
func (cp *Compiler) workers() int {
	if cp.Cfg.Workers > 1 {
		return cp.Cfg.Workers
	}
	return 1
}

// rank estimates a merged block's latency with the analytical model.
func (cp *Compiler) rank(ctx context.Context, b *critical.Block) (float64, error) {
	return cp.Ranker.LatencyCtx(ctx, b.Custom())
}

// CompileCtx runs the full pipeline on a physical circuit, with
// observability: when the context carries an
// obs tracer and/or metrics registry (internal/obs), every pipeline stage
// opens a span (paqoc.mine, paqoc.initial_blocks, paqoc.apply_apa,
// paqoc.optimize, paqoc.emit) and the merge loop, the pulse generators,
// and the simulator update counters. With a bare context the behaviour
// and cost match Compile.
func (cp *Compiler) CompileCtx(ctx context.Context, phys *circuit.Circuit) (*Result, error) {
	start := time.Now()
	res := &Result{}
	ctx, root := obs.StartSpan(ctx, "paqoc.compile")
	root.SetAttr("gates", len(phys.Gates))
	root.SetAttr("qubits", phys.NumQubits)
	defer root.End()

	// Per-stage wall-clock distribution (ms) and live stage events. Both
	// are nil-safe no-ops with a bare context; stageDone fires once per
	// pipeline stage, so its cost is negligible against the stage itself.
	stageMs := obs.MetricsFrom(ctx).HistogramVec(obs.StageMetric, obs.LatencyBuckets, "stage")
	events := obs.EventsFrom(ctx)
	stageDone := func(stage string, began time.Time) {
		d := time.Since(began)
		stageMs.WithLabelValues(stage).Observe(float64(d) / float64(time.Millisecond))
		events.PublishStage(stage, d)
	}

	if cp.Cfg.Commute {
		_, span := obs.StartSpan(ctx, "paqoc.commute")
		t0 := time.Now()
		phys = commute.Canonicalize(phys)
		stageDone("commute", t0)
		span.End()
	}

	// ── Frequent subcircuits miner → APA-basis gates ──────────────────
	selections := cp.Cfg.Preselected
	if selections == nil && cp.Cfg.M != 0 {
		mctx, span := obs.StartSpan(ctx, "paqoc.mine")
		t0 := time.Now()
		patterns, err := mining.MineCtx(mctx, phys, cp.miningOpts())
		if err != nil {
			span.End()
			return nil, fmt.Errorf("paqoc: %w", err)
		}
		if cp.Cfg.M == MTuned {
			selections = mining.SelectTuned(phys, patterns, cp.Cfg.MinSupport)
		} else {
			selections = mining.Select(phys, patterns, cp.Cfg.M, cp.Cfg.MinSupport)
		}
		stageDone("mine", t0)
		span.SetAttr("patterns", len(patterns))
		span.SetAttr("selections", len(selections))
		span.End()
	}
	res.APASelections = selections

	// ── Initial block circuit with analytical latencies ───────────────
	ibctx, ibSpan := obs.StartSpan(ctx, "paqoc.initial_blocks")
	t0 := time.Now()
	bc, err := critical.FromCircuit(phys, func(cg *pulse.CustomGate) (float64, error) {
		return cp.Ranker.LatencyCtx(ibctx, cg)
	})
	stageDone("initial_blocks", t0)
	ibSpan.End()
	if err != nil {
		return nil, err
	}
	res.InitialLatency = bc.CriticalPath()

	apaCtx, apaSpan := obs.StartSpan(ctx, "paqoc.apply_apa")
	t0 = time.Now()
	err = cp.applyAPA(apaCtx, bc, selections)
	stageDone("apply_apa", t0)
	apaSpan.End()
	if err != nil {
		return nil, err
	}

	// ── Criticality-aware customized gates generator (Algorithm 1) ────
	octx, optSpan := obs.StartSpan(ctx, "paqoc.optimize")
	t0 = time.Now()
	iters, err := cp.optimize(octx, bc)
	stageDone("optimize", t0)
	optSpan.SetAttr("iterations", iters)
	optSpan.End()
	if err != nil {
		return nil, err
	}
	res.Iterations = iters

	// ── Control pulses generator: emit final pulses per block on the
	// worker pool. APA blocks first (with a barrier), so their (offline)
	// pulses are in the database before the online pass runs. Each task
	// writes only its own block; the shared pulse database deduplicates
	// concurrent generations of the same unitary. ──────────────────────
	ectx, emitSpan := obs.StartSpan(ctx, "paqoc.emit")
	t0 = time.Now()
	emitted := obs.MetricsFrom(ctx).Counter("paqoc.emit.blocks")
	emitSpan.SetAttr("workers", cp.workers())
	// APA-basis pulses are the offline investment of §V-C: when the
	// generator shares a capacity-bounded pulse DB (a long-running
	// server), protect their entries so ranked eviction drops cold online
	// pulses first.
	var pulseDB *pulse.DB
	if p, ok := cp.Gen.(pulse.DBProvider); ok {
		pulseDB = p.PulseDB()
	}
	// A merged block the generator cannot realize at the fidelity target
	// within its duration budget (the analytical model accepted a merge
	// GRAPE cannot reach) is not a failed compile: it is recorded here and
	// emitted as its gates after the parallel phases. Context errors and
	// single-gate failures still fail the job.
	var (
		unreachableMu sync.Mutex
		unreachable   map[*critical.Block]bool
	)
	emit := func(ctx context.Context, b *critical.Block) error {
		gen, err := cp.Gen.GenerateCtx(ctx, b.Custom(), cp.Cfg.FidelityTarget)
		if err != nil {
			if len(b.Gates) > 1 && errors.Is(err, pulse.ErrFidelityUnreachable) {
				unreachableMu.Lock()
				if unreachable == nil {
					unreachable = map[*critical.Block]bool{}
				}
				unreachable[b] = true
				unreachableMu.Unlock()
				return nil
			}
			// %w: callers classify deadline/cancel from the error chain.
			return fmt.Errorf("paqoc: generating pulses for %s: %w", b.Custom().Describe(), err)
		}
		if b.APA && pulseDB != nil {
			if u, uerr := b.Custom().Unitary(); uerr == nil {
				pulseDB.Protect(u)
			}
		}
		emitted.Inc()
		b.Gen = gen
		b.Latency = gen.Latency
		return nil
	}
	emitPhase := func(blocks []*critical.Block, apa bool) error {
		g, _ := engine.WithContext(ectx, cp.workers())
		for _, b := range blocks {
			if b.APA == apa {
				b := b
				g.Go(func(ctx context.Context) error { return emit(ctx, b) })
			}
		}
		return g.Wait()
	}
	for _, apa := range []bool{true, false} {
		if err := emitPhase(bc.Blocks, apa); err != nil {
			emitSpan.End()
			return nil, err
		}
	}
	if len(unreachable) > 0 {
		// Split in block order, so the fallback is deterministic for any
		// worker count.
		var parts []*critical.Block
		for i := 0; i < len(bc.Blocks); i++ {
			if unreachable[bc.Blocks[i]] {
				split := bc.Split(i)
				parts = append(parts, split...)
				i += len(split) - 1
			}
		}
		obs.MetricsFrom(ctx).Counter("paqoc.emit.split_fallbacks").Add(int64(len(unreachable)))
		emitSpan.SetAttr("split_fallbacks", len(unreachable))
		if err := emitPhase(parts, false); err != nil {
			emitSpan.End()
			return nil, err
		}
	}
	stageDone("emit", t0)
	emitSpan.End()
	// Cost accounting in block order — the same order the serial loops
	// summed in, so totals are bit-identical at workers=1 and
	// deterministic for any worker count.
	var cost, offline float64
	for _, b := range bc.Blocks {
		if b.Gen == nil {
			continue
		}
		if b.APA {
			offline += b.Gen.Cost
		} else {
			cost += b.Gen.Cost
		}
	}
	res.OfflineCost = offline
	// Probe costs already accumulated inside optimize().
	cost += cp.probeCost
	cp.probeCost = 0

	res.Blocks = bc
	res.Latency = bc.CriticalPath()
	res.TotalLatency = bc.TotalLatency()
	res.ESP = pulsesim.ESPCtx(ctx, bc.Generated())
	res.WallTime = time.Since(start)
	// Total compilation overhead: pulse generation (the ~95% component,
	// §VI-B) plus the measured search/mining time.
	res.CompileCost = cost + res.WallTime.Seconds()
	res.NumBlocks = len(bc.Blocks)
	bc.ReleaseDAG()
	return res, nil
}

func (cp *Compiler) miningOpts() mining.Options {
	o := cp.Cfg.Mining
	if o.MaxQubits == 0 || o.MaxQubits > cp.Cfg.MaxN {
		o.MaxQubits = cp.Cfg.MaxN
	}
	if o.MinSupport == 0 {
		o.MinSupport = cp.Cfg.MinSupport
	}
	return o
}

// applyAPA replaces the selected embeddings with single blocks.
func (cp *Compiler) applyAPA(ctx context.Context, bc *critical.BlockCircuit, selections []mining.Selection) error {
	if len(selections) == 0 {
		return nil
	}
	// Collect gate-index → embedding assignments. Initial blocks map 1:1
	// to gate indices, so embeddings translate directly.
	for _, sel := range selections {
		for _, emb := range sel.Chosen {
			if err := cp.mergeRun(ctx, bc, emb); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeRun fuses the blocks holding the given original gate indices into a
// single APA block by repeated pairwise merging. Blocks are tracked through
// index shifts via their Origin tags.
func (cp *Compiler) mergeRun(ctx context.Context, bc *critical.BlockCircuit, gateIdx []int) error {
	gset := make(map[int]bool, len(gateIdx))
	for _, gi := range gateIdx {
		gset[gi] = true
	}
	for {
		members := memberBlocks(bc, gset)
		if len(members) <= 1 {
			if len(members) == 1 {
				bc.Blocks[members[0]].APA = true
			}
			return nil
		}
		merged := false
	search:
		for _, i := range members {
			for _, j := range members {
				if i >= j || !bc.ValidMerge(i, j, cp.Cfg.MaxN) {
					continue
				}
				m := critical.Merge(bc.Blocks[i], bc.Blocks[j])
				lat, err := cp.rank(ctx, m)
				if err != nil {
					return err
				}
				m.APA = true
				bc.ReplaceMerge(i, j, m, lat, nil)
				merged = true
				break search
			}
		}
		if !merged {
			// Remaining members cannot legally fuse (the selection's
			// convexity held on the original circuit but an earlier APA
			// replacement intervened); leave them as separate blocks.
			return nil
		}
	}
}

// memberBlocks returns indices of blocks consisting entirely of gates from
// the given original-index set.
func memberBlocks(bc *critical.BlockCircuit, gset map[int]bool) []int {
	var out []int
	for bi, b := range bc.Blocks {
		if len(b.Origin) == 0 {
			continue
		}
		all := true
		for _, o := range b.Origin {
			if !gset[o] {
				all = false
				break
			}
		}
		if all {
			out = append(out, bi)
		}
	}
	return out
}
