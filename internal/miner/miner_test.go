package miner

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// fakeGen is a deterministic stand-in for GRAPE: it stores an entry under
// the gate's canonical key (like the real generator's DB.Do path) and
// counts calls. Optional hooks make it slow or failing.
type fakeGen struct {
	db    *pulse.DB
	calls atomic.Int64
	delay time.Duration
	fail  bool
}

func (f *fakeGen) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fid float64) (*pulse.Generated, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.fail {
		return nil, fmt.Errorf("fake: optimization diverged")
	}
	u, err := cg.Unitary()
	if err != nil {
		return nil, err
	}
	g := &pulse.Generated{Latency: 40, Fidelity: fid}
	f.db.Store(u, g)
	return g, nil
}

func quiet() *slog.Logger { return obs.NewLogger(io.Discard, slog.LevelError) }

// swapCircuit carries one SWAP idiom (3 CX) — the canonical recurring
// pattern.
func swapCircuit() *circuit.Circuit {
	c := circuit.New(2)
	c.Add("cx", 0, 1)
	c.Add("cx", 1, 0)
	c.Add("cx", 0, 1)
	return c
}

func testBackend(t *testing.T) Backend {
	t.Helper()
	prof, err := device.Lookup("xy-grid-1x2")
	if err != nil {
		t.Fatal(err)
	}
	db := pulse.NewDB()
	db.SetFingerprint(prof.Fingerprint())
	return Backend{Profile: prof, DB: db}
}

func newTestMiner(t *testing.T, cfg Config, gen func(Backend) pulse.Generator) *Miner {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = quiet()
	}
	cfg.NewGenerator = gen
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// TestMinerPregeneratesFrequentPattern: observing the same pattern across
// enough requests pre-generates its pulse, protects the entry, and the
// status resource reports it.
func TestMinerPregeneratesFrequentPattern(t *testing.T) {
	b := testBackend(t)
	var fg *fakeGen
	cfg := Config{Mining: mining.Options{MinSupport: 3}, Budget: 32, Registry: obs.NewRegistry()}
	m := newTestMiner(t, cfg, func(bk Backend) pulse.Generator {
		fg = &fakeGen{db: bk.DB}
		return fg
	})

	for i := 0; i < 3; i++ {
		m.Observe(b, swapCircuit())
	}
	m.RunOnce(context.Background())

	if fg == nil || fg.calls.Load() == 0 {
		t.Fatal("no pulses pre-generated after 3 observations at MinSupport 3")
	}
	if got := cfg.Registry.Counter("miner.pregenerated").Value(); got == 0 {
		t.Error("miner.pregenerated stayed 0")
	}
	if got := cfg.Registry.Counter("miner.idle_runs").Value(); got != 1 {
		t.Errorf("miner.idle_runs = %d, want 1", got)
	}
	if b.DB.Len() == 0 {
		t.Fatal("pre-generated pulse not stored in the backend DB")
	}
	// The entry must be Protected: with MaxEntries 1 and a competing
	// store, ranked eviction must keep the pre-generated one.
	st := m.Status()
	if !st.Enabled || st.Pregenerated == 0 || st.PatternsTracked == 0 {
		t.Errorf("status = %+v, want enabled with pregenerated and tracked patterns", st)
	}
	if len(st.Backends) != 1 || st.Backends[0].Fingerprint != b.Profile.Fingerprint() {
		t.Fatalf("status backends = %+v", st.Backends)
	}
	if len(st.Backends[0].TopPatterns) == 0 || !st.Backends[0].TopPatterns[0].Pregenerated {
		t.Errorf("top pattern not marked pregenerated: %+v", st.Backends[0].TopPatterns)
	}
	if st.Backends[0].TopPatterns[0].Support != 3 {
		t.Errorf("top pattern support = %d, want 3", st.Backends[0].TopPatterns[0].Support)
	}

	// A second run must not regenerate the same pattern.
	calls := fg.calls.Load()
	m.RunOnce(context.Background())
	if fg.calls.Load() != calls {
		t.Error("second run regenerated an already pre-generated pattern")
	}
}

// TestMinerBusyQueueYields: a busy Idle() means no pre-generation at all,
// and flipping busy mid-run yields between pulses.
func TestMinerBusyQueueYields(t *testing.T) {
	b := testBackend(t)
	var busy atomic.Bool
	var fg *fakeGen
	reg := obs.NewRegistry()
	m := newTestMiner(t, Config{
		Mining:   mining.Options{MinSupport: 2},
		Registry: reg,
		Idle:     func() bool { return !busy.Load() },
		Budget:   8,
	}, func(bk Backend) pulse.Generator {
		fg = &fakeGen{db: bk.DB}
		return fg
	})

	busy.Store(true)
	for i := 0; i < 3; i++ {
		m.Observe(b, swapCircuit())
	}
	m.RunOnce(context.Background())
	if fg != nil && fg.calls.Load() != 0 {
		t.Fatal("pre-generated while the queue was busy")
	}
	if got := reg.Counter("miner.idle_runs").Value(); got != 0 {
		t.Errorf("busy run counted as idle (idle_runs=%d)", got)
	}
	// Corpus folding must proceed regardless of business.
	if got := reg.Gauge("miner.corpus_circuits").Value(); got != 3 {
		t.Errorf("corpus_circuits = %v, want 3 (folding must not depend on idleness)", got)
	}

	// Idle again: pre-generation proceeds, but a watcher flips the queue
	// busy as soon as the first pulse starts, so the run must yield before
	// a second one.
	busy.Store(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fg.calls.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		busy.Store(true)
	}()
	// Add a second frequent pattern so the worklist has ≥ 2 jobs.
	two := func() *circuit.Circuit {
		c := circuit.New(2)
		c.Add("h", 0)
		c.Add("cx", 0, 1)
		c.Add("h", 0)
		c.Add("cx", 0, 1)
		return c
	}
	for i := 0; i < 3; i++ {
		m.Observe(b, two())
	}
	fg.delay = 5 * time.Millisecond // give the watcher time to flip busy
	m.RunOnce(context.Background())
	<-done
	if fg.calls.Load() > 1 {
		// 1 is the expected yield point; 2+ means it ignored the busy flip.
		t.Errorf("generator ran %d times in a window that turned busy after the first", fg.calls.Load())
	}
	if got := reg.Counter("miner.yields").Value(); got == 0 {
		t.Error("miner.yields stayed 0 despite the busy flip mid-run")
	}
}

// TestMinerBudget bounds pulses per idle run.
func TestMinerBudget(t *testing.T) {
	b := testBackend(t)
	var fg *fakeGen
	m := newTestMiner(t, Config{
		Mining: mining.Options{MinSupport: 2},
		Budget: 1,
	}, func(bk Backend) pulse.Generator {
		fg = &fakeGen{db: bk.DB}
		return fg
	})
	// Several distinct frequent patterns.
	mk := func(n int) *circuit.Circuit {
		c := circuit.New(2)
		for i := 0; i < n; i++ {
			c.Add("cx", 0, 1)
			c.Add("h", 0)
		}
		return c
	}
	for i := 0; i < 3; i++ {
		m.Observe(b, mk(2))
		m.Observe(b, mk(3))
	}
	m.RunOnce(context.Background())
	if got := fg.calls.Load(); got != 1 {
		t.Errorf("budget 1 run generated %d pulses", got)
	}
	// Next run picks up where it left off.
	m.RunOnce(context.Background())
	if got := fg.calls.Load(); got != 2 {
		t.Errorf("second budget-1 run brought total to %d, want 2", got)
	}
}

// TestMinerFailedPatternNotRetried: a deterministic generation failure is
// recorded and the pattern is not retried every run.
func TestMinerFailedPatternNotRetried(t *testing.T) {
	b := testBackend(t)
	var fg *fakeGen
	m := newTestMiner(t, Config{Mining: mining.Options{MinSupport: 2}, Budget: 32},
		func(bk Backend) pulse.Generator {
			fg = &fakeGen{db: bk.DB, fail: true}
			return fg
		})
	for i := 0; i < 3; i++ {
		m.Observe(b, swapCircuit())
	}
	m.RunOnce(context.Background())
	calls := fg.calls.Load()
	if calls == 0 {
		t.Fatal("failing generator never called")
	}
	m.RunOnce(context.Background())
	if fg.calls.Load() != calls {
		t.Error("failed pattern retried on the next run")
	}
}

// TestMinerStopCancelsInflight: Stop during a slow pre-generation returns
// promptly because the generator context is cancelled.
func TestMinerStopCancelsInflight(t *testing.T) {
	b := testBackend(t)
	started := make(chan struct{}, 1)
	m := newTestMiner(t, Config{Mining: mining.Options{MinSupport: 2}, Interval: time.Hour},
		func(bk Backend) pulse.Generator {
			return genFunc(func(ctx context.Context, cg *pulse.CustomGate, fid float64) (*pulse.Generated, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done() // hang until cancelled
				return nil, ctx.Err()
			})
		})
	for i := 0; i < 3; i++ {
		m.Observe(b, swapCircuit())
	}
	ranOnce := make(chan struct{})
	go func() {
		m.RunOnce(m.ctx)
		close(ranOnce)
	}()
	<-started
	stopDone := make(chan struct{})
	go func() {
		m.Stop()
		close(stopDone)
	}()
	select {
	case <-stopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the in-flight pre-generation")
	}
	<-ranOnce
	// Cancelled pattern stays eligible: no pregen record.
	st := m.Status()
	if st.Pregenerated != 0 {
		t.Errorf("cancelled run reported %d pregenerated", st.Pregenerated)
	}
}

type genFunc func(ctx context.Context, cg *pulse.CustomGate, fid float64) (*pulse.Generated, error)

func (f genFunc) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fid float64) (*pulse.Generated, error) {
	return f(ctx, cg, fid)
}

// TestMinerIngestDropsWhenFull: a full ingest queue drops rather than
// blocks, and counts the drop.
func TestMinerIngestDropsWhenFull(t *testing.T) {
	b := testBackend(t)
	reg := obs.NewRegistry()
	m := newTestMiner(t, Config{Registry: reg},
		func(bk Backend) pulse.Generator { return &fakeGen{db: bk.DB} })
	for i := 0; i < ingestDepth+3; i++ {
		m.Observe(b, swapCircuit()) // never drained: Start not called
	}
	if got := reg.Counter("miner.ingest_dropped").Value(); got != 3 {
		t.Errorf("ingest_dropped = %d, want 3 (depth %d, %d observations)", got, ingestDepth, ingestDepth+3)
	}
}

// TestMinerCorpusBound: folding past CorpusMax evicts the oldest circuits.
func TestMinerCorpusBound(t *testing.T) {
	b := testBackend(t)
	reg := obs.NewRegistry()
	m := newTestMiner(t, Config{CorpusMax: 4, Registry: reg,
		Idle: func() bool { return false }}, // fold only
		func(bk Backend) pulse.Generator { return &fakeGen{db: bk.DB} })
	for i := 0; i < 10; i++ {
		m.Observe(b, swapCircuit())
	}
	m.RunOnce(context.Background())
	if got := reg.Gauge("miner.corpus_circuits").Value(); got != 4 {
		t.Errorf("corpus_circuits = %v, want CorpusMax 4", got)
	}
}

// TestMinerRejectsInvalidMiningOptions: the silent-clamp fix reaches the
// service construction path too.
func TestMinerRejectsInvalidMiningOptions(t *testing.T) {
	_, err := New(Config{Mining: mining.Options{MinSupport: -2}})
	if err == nil {
		t.Fatal("New accepted negative MinSupport")
	}
}

// TestMinerStatusDisabledFieldsZero: a fresh miner reports empty state
// without panicking.
func TestMinerStatusEmpty(t *testing.T) {
	m := newTestMiner(t, Config{}, func(bk Backend) pulse.Generator { return &fakeGen{db: bk.DB} })
	st := m.Status()
	if !st.Enabled || st.CorpusCircuits != 0 || len(st.Backends) != 0 {
		t.Errorf("empty miner status = %+v", st)
	}
}
