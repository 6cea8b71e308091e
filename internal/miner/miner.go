// Package miner is the offline APA mining service of §V-C, lifted from a
// per-compile pass to a standing background component: it watches the
// circuits a server compiles, maintains cross-request frequent-subcircuit
// statistics per backend fingerprint (an incremental mining.Table over a
// bounded corpus), and — only while the job queue is idle — pre-generates
// the top-coverage patterns' APA-basis pulses into the shared pulse
// database, marking them Protected so capacity eviction keeps them. With a
// cluster Remote attached, pre-generated pulses are write-through
// published to their rendezvous owner, so one replica's traffic warms the
// fleet.
//
// The economics mirror AccQOC's ahead-of-time pulse compilation, applied
// to program-aware patterns: the optimization cost is paid during idle
// capacity, and later requests whose APA blocks hit a pre-generated
// (exact or permuted) key skip their GRAPE cold start entirely.
package miner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/grape"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// Backend bundles what the miner needs to serve one device profile: the
// profile itself, its fingerprint-namespaced pulse database, and the
// optional cross-replica pulse source (nil outside a cluster).
type Backend struct {
	Profile *device.Profile
	DB      *pulse.DB
	Remote  pulse.Remote
}

// Config sizes the mining service. Zero values select the documented
// defaults.
type Config struct {
	// Interval is the cadence of mining runs (fold observed circuits,
	// reconcile pre-generation hits, pre-generate during idle capacity).
	// Default 1m.
	Interval time.Duration
	// Mining bounds the pattern search; MinSupport applies to the
	// cross-request aggregate (a pattern once-per-circuit in three
	// requests has support 3). Invalid values are an error from New.
	Mining mining.Options
	// CorpusMax bounds the per-backend circuit corpus; past it the oldest
	// circuit's contributions are evicted from the pattern table. Default
	// 256.
	CorpusMax int
	// Budget caps pulses pre-generated per idle run, so one run cannot
	// monopolize the machine even when the queue stays idle. Default 4.
	Budget int
	// Idle reports whether the job queue is idle; pre-generation runs only
	// while it returns true and yields as soon as it stops. Nil means
	// always idle (tests, offline tools).
	Idle func() bool
	// NewGenerator builds the pulse generator for a backend. Nil selects
	// the real GRAPE generator wired like the server's compile path
	// (shared DB, topology-restricted couplings, profile Hamiltonian,
	// cluster write-through).
	NewGenerator func(b Backend) pulse.Generator
	// Registry receives the miner.* metric families (nil-safe).
	Registry *obs.Registry
	// Logger receives structured mining logs (default stderr at info).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.CorpusMax <= 0 {
		c.CorpusMax = 256
	}
	if c.Budget <= 0 {
		c.Budget = 4
	}
	if c.NewGenerator == nil {
		c.NewGenerator = defaultGenerator
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, slog.LevelInfo)
	}
}

const (
	// fidelityTarget is the pre-generated pulses' fidelity: the target
	// the compile path requests, so keys and entries line up.
	fidelityTarget = 0.999
	// ingestDepth bounds the Observe channel; a full channel drops the
	// observation (and counts miner.ingest_dropped) rather than stalling
	// the compile path.
	ingestDepth = 256
)

// defaultGenerator mirrors the server compile path's GRAPE wiring, so the
// pulses the miner pre-generates land under exactly the keys compile-time
// APA blocks will look up.
func defaultGenerator(b Backend) pulse.Generator {
	g := grape.NewGenerator(grape.DefaultOptions())
	g.Topo = b.Profile.Topology()
	g.DB = b.DB
	g.System = b.Profile.SystemBuilder()
	g.Remote = b.Remote
	return g
}

// observed is one compile-path observation awaiting folding.
type observed struct {
	b Backend
	c *circuit.Circuit
}

// pregenEntry tracks one pre-generated pattern: the DB entry it produced
// and the last reconciled use count, so the delta since pre-generation is
// attributable to later requests (miner.pregen_hits).
type pregenEntry struct {
	entry *pulse.Entry // nil while a failed attempt cools down
	uses  int64
}

// backendState is the miner's per-backend-fingerprint slice: the bounded
// corpus ring, the incremental pattern table, and the pre-generation
// ledger.
type backendState struct {
	b      Backend
	gen    pulse.Generator
	table  *mining.Table
	nextID int
	ring   []int // live circuit ids, oldest first
	pregen map[string]*pregenEntry
}

// Miner is the background mining service. Create with New, launch with
// Start, feed with Observe from the compile path, stop with Stop.
type Miner struct {
	cfg    Config
	ingest chan observed

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool

	mu     sync.Mutex
	states map[string]*backendState // by backend fingerprint
	newGen func(Backend) pulse.Generator
}

// New validates the configuration and builds an idle miner. No goroutines
// run until Start.
func New(cfg Config) (*Miner, error) {
	if err := cfg.Mining.Validate(); err != nil {
		return nil, fmt.Errorf("miner: %w", err)
	}
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Miner{
		cfg:    cfg,
		ingest: make(chan observed, ingestDepth),
		ctx:    ctx,
		cancel: cancel,
		states: map[string]*backendState{},
		newGen: cfg.NewGenerator,
	}
	return m, nil
}

// SetGeneratorFactory swaps the pulse-generator factory. It must be called
// before Start; tests use it to substitute deterministic (slow, failing,
// instant) generators for GRAPE.
func (m *Miner) SetGeneratorFactory(f func(Backend) pulse.Generator) { m.newGen = f }

// Start launches the periodic mining loop.
func (m *Miner) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	m.wg.Add(1)
	go m.loop()
}

// Stop cancels any in-flight pre-generation (the generators are
// ctx-aware) and waits for the mining loop to exit. Safe to call more
// than once, and before Start.
func (m *Miner) Stop() {
	m.cancel()
	m.wg.Wait()
}

func (m *Miner) loop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-tick.C:
			m.RunOnce(m.ctx)
		}
	}
}

// Observe submits one compiled circuit (post-routing, physical form — the
// same form the compile path mines) for corpus ingestion. Non-blocking: a
// full ingest queue drops the observation and counts it, so the compile
// hot path never waits on the miner.
func (m *Miner) Observe(b Backend, c *circuit.Circuit) {
	if b.Profile == nil || b.DB == nil || c == nil || len(c.Gates) == 0 {
		return
	}
	select {
	case m.ingest <- observed{b: b, c: c}:
	default:
		m.counter("miner.ingest_dropped").Inc()
	}
}

// RunOnce executes one mining run: drain the ingest queue into the
// per-backend tables (evicting past the corpus bound), reconcile
// pre-generation hits, and — while the job queue is idle — pre-generate up
// to Budget top-coverage patterns. Exported so tests and offline tools
// can drive the miner deterministically; the Start loop calls it on every
// Interval tick.
func (m *Miner) RunOnce(ctx context.Context) {
	m.drainIngest(ctx)
	m.reconcileHits()
	m.updateGauges()
	m.pregenerate(ctx)
}

func (m *Miner) drainIngest(ctx context.Context) {
	for {
		select {
		case o := <-m.ingest:
			m.fold(ctx, o)
		default:
			return
		}
	}
}

// fold adds one observation to its backend's table, retiring the oldest
// corpus circuit past the bound.
func (m *Miner) fold(ctx context.Context, o observed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fp := o.b.Profile.Fingerprint()
	st := m.states[fp]
	if st == nil {
		table, err := mining.NewTable(m.cfg.Mining)
		if err != nil {
			// Config.Mining was validated in New; this cannot happen.
			m.cfg.Logger.Error("miner: table", "error", err)
			return
		}
		st = &backendState{
			b:      o.b,
			gen:    m.newGen(o.b),
			table:  table,
			pregen: map[string]*pregenEntry{},
		}
		m.states[fp] = st
		m.cfg.Logger.Info("miner: tracking backend", "backend", o.b.Profile.Name, "fingerprint", fp)
	}
	id := st.nextID
	st.nextID++
	if err := st.table.Fold(ctx, id, o.c); err != nil {
		m.cfg.Logger.Error("miner: fold", "error", err)
		return
	}
	st.ring = append(st.ring, id)
	for len(st.ring) > m.cfg.CorpusMax {
		st.table.Evict(st.ring[0])
		st.ring = st.ring[1:]
	}
}

// reconcileHits folds each pre-generated entry's use-count delta into
// miner.pregen_hits: uses recorded since pre-generation are requests the
// warm entry served (exact, permuted, or dedup hits all count uses).
func (m *Miner) reconcileHits() {
	m.mu.Lock()
	defer m.mu.Unlock()
	hits := m.counter("miner.pregen_hits")
	for _, st := range m.states {
		for _, pe := range st.pregen {
			if pe.entry == nil {
				continue
			}
			if u := pe.entry.Uses(); u > pe.uses {
				hits.Add(u - pe.uses)
				pe.uses = u
			}
		}
	}
}

func (m *Miner) updateGauges() {
	m.mu.Lock()
	defer m.mu.Unlock()
	circuits, patterns := 0, 0
	for _, st := range m.states {
		circuits += st.table.Circuits()
		patterns += len(st.table.Patterns())
	}
	if r := m.cfg.Registry; r != nil {
		r.Gauge("miner.corpus_circuits").Set(float64(circuits))
		r.Gauge("miner.patterns_tracked").Set(float64(patterns))
	}
}

// pregenJob is one pattern scheduled for pre-generation, captured under
// the lock and executed outside it.
type pregenJob struct {
	fp  string
	sig string
	gen pulse.Generator
	db  *pulse.DB
	cg  *pulse.CustomGate
}

// pregenerate runs the low-priority lane: only while the queue is idle,
// at most Budget pulses, re-checking idleness before every pulse and
// yielding (miner.yields) the moment client work appears. Cancellation of
// ctx (server drain) aborts the in-flight optimization via the generator's
// context awareness.
func (m *Miner) pregenerate(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	if m.cfg.Idle != nil && !m.cfg.Idle() {
		return // busy: not an idle run at all
	}
	jobs := m.pregenWorklist()
	m.counter("miner.idle_runs").Inc()
	if len(jobs) == 0 {
		return
	}
	for _, job := range jobs {
		if ctx.Err() != nil {
			return
		}
		if m.cfg.Idle != nil && !m.cfg.Idle() {
			m.counter("miner.yields").Inc()
			return
		}
		m.pregenOne(ctx, job)
	}
}

// pregenWorklist snapshots up to Budget not-yet-pre-generated patterns,
// best cross-request coverage first, across backends in deterministic
// fingerprint order.
func (m *Miner) pregenWorklist() []pregenJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	fps := make([]string, 0, len(m.states))
	for fp := range m.states {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	var jobs []pregenJob
	for _, fp := range fps {
		st := m.states[fp]
		for _, p := range st.table.Patterns() {
			if len(jobs) >= m.cfg.Budget {
				return jobs
			}
			if _, done := st.pregen[p.Signature]; done {
				continue
			}
			jobs = append(jobs, pregenJob{
				fp:  fp,
				sig: p.Signature,
				gen: st.gen,
				db:  st.b.DB,
				cg:  pulse.NewCustomGate(p.Rep),
			})
		}
	}
	return jobs
}

// pregenTimeout is the per-pulse pre-generation deadline.
const pregenTimeout = 60 * time.Second

// pregenOne pays one pattern's optimization cost ahead of any request:
// generate (DB-deduplicated, remote-fetched when a peer already has it,
// write-through published otherwise), then protect the entry so ranked
// eviction keeps the offline investment.
func (m *Miner) pregenOne(ctx context.Context, job pregenJob) {
	reg := m.cfg.Registry
	pctx, cancel := context.WithTimeout(ctx, pregenTimeout)
	defer cancel()
	if reg != nil {
		pctx = (&obs.Obs{Metrics: reg}).Attach(pctx)
	}
	start := time.Now()
	_, err := job.gen.GenerateCtx(pctx, job.cg, fidelityTarget)
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			// Drain: leave the pattern eligible for the next run.
			return
		}
		// A deterministic failure (or per-job timeout) is recorded so the
		// pattern is not retried every interval.
		m.cfg.Logger.Warn("miner: pregeneration failed",
			"pattern", job.sig, "gate", job.cg.Describe(), "error", err)
		m.recordPregen(job, nil)
		return
	}
	u, uerr := job.cg.Unitary()
	if uerr != nil {
		m.cfg.Logger.Warn("miner: pregenerated gate has no unitary", "error", uerr)
		return
	}
	job.db.Protect(u)
	e, _ := job.db.Peek(u)
	m.recordPregen(job, e)
	m.counter("miner.pregenerated").Inc()
	if reg != nil {
		reg.Histogram("miner.pregen_ms", obs.LatencyBuckets).
			Observe(float64(elapsed) / float64(time.Millisecond))
	}
	m.cfg.Logger.Info("miner: pregenerated APA pulse",
		"gate", job.cg.Describe(), "ms", elapsed.Milliseconds())
}

func (m *Miner) recordPregen(job pregenJob, e *pulse.Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.states[job.fp]
	if st == nil {
		return
	}
	pe := &pregenEntry{entry: e}
	if e != nil {
		pe.uses = e.Uses()
	}
	st.pregen[job.sig] = pe
}

// Status reports the miner's live state for GET /v1/mining/status,
// reconciling pregen hits first so the counters are fresh.
func (m *Miner) Status() api.MiningStatus {
	m.reconcileHits()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := api.MiningStatus{
		Enabled:    true,
		IntervalMs: m.cfg.Interval.Milliseconds(),
		MinSupport: m.effectiveMinSupport(),
		CorpusMax:  m.cfg.CorpusMax,
		Budget:     m.cfg.Budget,
	}
	if r := m.cfg.Registry; r != nil {
		out.Pregenerated = r.Counter("miner.pregenerated").Value()
		out.PregenHits = r.Counter("miner.pregen_hits").Value()
		out.IdleRuns = r.Counter("miner.idle_runs").Value()
		out.Yields = r.Counter("miner.yields").Value()
	}
	fps := make([]string, 0, len(m.states))
	for fp := range m.states {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	const topPatterns = 10
	for _, fp := range fps {
		st := m.states[fp]
		pats := st.table.Patterns()
		pregenCount := 0
		for _, pe := range st.pregen {
			if pe.entry != nil {
				pregenCount++
			}
		}
		bs := api.MiningBackendStatus{
			Backend:         st.b.Profile.Name,
			Fingerprint:     fp,
			CorpusCircuits:  st.table.Circuits(),
			PatternsTracked: len(pats),
			Pregenerated:    pregenCount,
		}
		for i, p := range pats {
			if i >= topPatterns {
				break
			}
			pe := st.pregen[p.Signature]
			bs.TopPatterns = append(bs.TopPatterns, api.MiningPattern{
				Signature:    p.Signature,
				GateCount:    p.GateCount,
				QubitCount:   p.QubitCount,
				Support:      p.Support,
				Circuits:     p.Circuits,
				Coverage:     p.Coverage(),
				Pregenerated: pe != nil && pe.entry != nil,
			})
		}
		out.CorpusCircuits += bs.CorpusCircuits
		out.PatternsTracked += bs.PatternsTracked
		out.Backends = append(out.Backends, bs)
	}
	return out
}

// effectiveMinSupport mirrors mining.Options.fill's default without
// mutating the stored options.
func (m *Miner) effectiveMinSupport() int {
	if m.cfg.Mining.MinSupport > 0 {
		return m.cfg.Mining.MinSupport
	}
	return mining.DefaultOptions().MinSupport
}

// counter is a nil-safe registry counter.
func (m *Miner) counter(name string) *obs.Counter {
	var r *obs.Registry
	if m.cfg.Registry != nil {
		r = m.cfg.Registry
	}
	return r.Counter(name)
}
