// Package server is the long-running pulse-compilation service: an HTTP
// front end over the PAQOC pipeline with a bounded job queue, a pool of
// compilation workers, and one shared race-safe pulse database that stays
// warm across requests — PR 2's singleflight dedup and the §V-B pulse
// reuse become cross-request wins instead of per-process ones.
//
// Robustness properties:
//
//   - Backpressure: the queue is bounded; a full queue rejects with
//     ErrQueueFull, which the HTTP layer maps to 429 + Retry-After.
//   - Deadlines: every job runs under a context deadline threaded into the
//     ctx-aware GRAPE/pulsesim hot loops, so an expired job releases its
//     worker instead of wedging it.
//   - Panic isolation: a panicking compilation fails its own job only.
//   - Graceful drain: Shutdown stops intake, lets queued and running jobs
//     finish within a deadline (cancelling stragglers), then persists the
//     pulse database crash-safely.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/cluster"
	"paqoc/internal/device"
	"paqoc/internal/miner"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// Sentinel errors returned by Submit.
var (
	// ErrQueueFull: the bounded job queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the server is shutting down and refuses new work (503).
	ErrDraining = errors.New("server: draining")
	// ErrTenantQuota: the submitting tenant is at its in-flight job cap
	// (HTTP 429 with error code "tenant_quota").
	ErrTenantQuota = errors.New("server: tenant at in-flight quota")
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent compilation jobs (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs queued beyond the running ones (default 64).
	// A full queue is backpressure: Submit fails fast with ErrQueueFull.
	QueueDepth int
	// SyncGateLimit is the auto-mode threshold: circuits with at most this
	// many logical gates compile synchronously in the request (default 48).
	SyncGateLimit int
	// DefaultTimeout bounds jobs that do not request a deadline (default
	// 120s); MaxTimeout caps client-requested deadlines (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobWorkers caps the client-requested intra-job pulse-generation
	// pool width (the request's "workers" field; default GOMAXPROCS) —
	// without a cap one request could demand an arbitrarily wide engine
	// pool multiplied across the server's own workers.
	MaxJobWorkers int
	// GrapeWorkers sets the per-optimization inner-loop goroutine count
	// for GRAPE jobs (grape.Options.Workers; 0 or 1 = serial). Results
	// are bit-identical across worker counts, so this is purely a
	// throughput knob — but it multiplies against Workers, so size the
	// product to the machine.
	GrapeWorkers int
	// EnablePprof mounts /debug/pprof on the public API mux. Off by
	// default: the profiling endpoints are unauthenticated, so they belong
	// on a loopback-only listener (cmd/paqoc-server's -pprof flag) unless
	// the API address itself is private.
	EnablePprof bool
	// DBPath is the pulse-database file: loaded at startup when present,
	// snapshotted periodically and on shutdown. Empty disables persistence.
	DBPath string
	// DBMaxEntries bounds the warm pulse database: past this many entries
	// a ranked eviction drops cold ones (APA-basis and high-hit entries
	// go last), keeping a long-running server's memory bounded. 0 means
	// unbounded.
	DBMaxEntries int
	// SnapshotInterval is the warm-DB persistence cadence (default 5m when
	// DBPath is set; negative disables periodic snapshots).
	SnapshotInterval time.Duration
	// Backend names the default device profile (internal/device registry
	// or a dynamic name like "xy-grid-3x4"; default "xy-grid-5x5").
	// Requests may override it per job with their own "backend" field;
	// each backend gets its own fingerprint-namespaced pulse database, so
	// schedules never leak across devices. Only the default backend's
	// database is persisted to DBPath.
	Backend string
	// GridRows/GridCols are the deprecated way to pick a grid device:
	// when Backend is empty they map to the dynamic profile
	// "xy-grid-<rows>x<cols>" (default 5×5).
	GridRows, GridCols int
	// JobRetention is how many finished jobs stay queryable (default 512).
	JobRetention int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// TenantMaxInflight caps how many jobs one tenant (the request's
	// "tenant" field; empty is a tenant of its own) may have queued or
	// running at once. Past the cap Submit fails with ErrTenantQuota
	// (429 + "tenant_quota"), so one chatty client cannot monopolize the
	// worker pool. 0 disables per-tenant quotas.
	TenantMaxInflight int
	// ClusterSelf and ClusterPeers configure multi-replica warm-store
	// replication (internal/cluster): ClusterPeers is the full static
	// membership of advertised -cluster-listen addresses and ClusterSelf
	// is this replica's own entry. Empty peers means standalone — every
	// pulse key is owned locally and no RPCs fire.
	ClusterSelf  string
	ClusterPeers []string
	// ClusterTimeout bounds each peer RPC (default 2s).
	ClusterTimeout time.Duration
	// MineInterval enables the offline APA mining service (internal/miner)
	// and sets its run cadence: the miner folds the circuits this server
	// compiles into per-backend cross-request pattern tables and, while
	// the job queue is idle, pre-generates top-coverage patterns' pulses
	// into the shared database. Zero or negative disables mining (the
	// default).
	MineInterval time.Duration
	// MineMinSupport is the miner's cross-request recurrence threshold
	// (default 2). Negative values are a construction error.
	MineMinSupport int
	// MineCorpusMax bounds the miner's per-backend circuit corpus
	// (default 256).
	MineCorpusMax int
	// MineBudget caps pulses pre-generated per idle mining run (default 4).
	MineBudget int
	// Logger receives structured service logs (default: JSON lines on
	// stderr at info level; tests pass obs.NewLogger(io.Discard, ...)).
	// Every job lifecycle transition — queued, running, done/failed,
	// evicted — is logged exactly once with a job_id field.
	Logger *obs.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SyncGateLimit <= 0 {
		c.SyncGateLimit = 48
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxJobWorkers <= 0 {
		c.MaxJobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Minute
	}
	if c.GridRows <= 0 {
		c.GridRows = 5
	}
	if c.GridCols <= 0 {
		c.GridCols = 5
	}
	if c.Backend == "" {
		c.Backend = fmt.Sprintf("xy-grid-%dx%d", c.GridRows, c.GridCols)
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 512
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NewStderrLogger(obs.LevelInfo)
	}
}

// Server is the resident compilation service. Create with New, launch the
// workers with Start, serve Handler over HTTP, and stop with Shutdown.
type Server struct {
	cfg     Config
	profile *device.Profile // default backend
	db      *pulse.DB       // default backend's database (the persisted one)
	reg     *obs.Registry
	jobs    *jobStore

	// dbs holds the lazily-created pulse databases of non-default
	// backends, keyed by profile name. Each is namespaced by its
	// profile's fingerprint; none of them is persisted.
	dbmu sync.Mutex
	dbs  map[string]*pulse.DB

	queue     chan *Job
	queueHigh chan *Job    // the priority lane: idle workers prefer it
	qmu       sync.RWMutex // guards queue-send vs close, and draining
	drain     bool

	// tenantInflight counts queued+running jobs per tenant for
	// Config.TenantMaxInflight admission.
	tmu            sync.Mutex
	tenantInflight map[string]int

	// cluster is this replica's membership view (standalone when no peers
	// are configured); dbsByFP resolves replication RPCs by backend
	// fingerprint.
	cluster *cluster.Cluster
	fpmu    sync.Mutex
	dbsByFP map[string]*pulse.DB

	// miner is the offline APA mining service (nil unless
	// Config.MineInterval is positive). It observes every compiled
	// circuit and pre-generates frequent patterns' pulses during idle
	// capacity.
	miner *miner.Miner

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
	snapWG     sync.WaitGroup
	snapStop   chan struct{}
	started    atomic.Bool
	ready      atomic.Bool

	// compileFn runs one job; tests swap it to simulate slow, stuck, or
	// panicking compilations deterministically.
	compileFn func(ctx context.Context, j *Job) (*api.Result, error)
}

// New builds a server and loads the default backend's pulse database from
// cfg.DBPath (a missing file starts cold; a snapshot calibrated for a
// different backend is refused). No goroutines run until Start.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	prof, err := device.Lookup(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("server: %v", err)
	}
	db := pulse.NewDB()
	db.SetFingerprint(prof.Fingerprint())
	if cfg.DBPath != "" {
		loaded, ok, err := pulse.LoadFileFor(cfg.DBPath, prof.Fingerprint())
		if err != nil {
			return nil, fmt.Errorf("server: loading pulse DB: %v", err)
		}
		db = loaded
		if ok {
			cfg.Logger.Info("pulse DB loaded", "entries", db.Len(), "path", cfg.DBPath, "backend", prof.Name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		profile:        prof,
		db:             db,
		dbs:            make(map[string]*pulse.DB),
		dbsByFP:        map[string]*pulse.DB{prof.Fingerprint(): db},
		reg:            obs.NewRegistry(),
		jobs:           newJobStore(cfg.JobRetention),
		queue:          make(chan *Job, cfg.QueueDepth),
		queueHigh:      make(chan *Job, cfg.QueueDepth),
		tenantInflight: map[string]int{},
		baseCtx:        ctx,
		baseCancel:     cancel,
		snapStop:       make(chan struct{}),
	}
	s.compileFn = s.compile
	s.cluster, err = cluster.New(cluster.Config{
		Self:     cfg.ClusterSelf,
		Peers:    cfg.ClusterPeers,
		Timeout:  cfg.ClusterTimeout,
		Registry: s.reg,
		Logger:   cfg.Logger,
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("server: %v", err)
	}
	if cfg.MineInterval > 0 {
		mopts := mining.DefaultOptions()
		mopts.MinSupport = cfg.MineMinSupport
		s.miner, err = miner.New(miner.Config{
			Interval:  cfg.MineInterval,
			Mining:    mopts,
			CorpusMax: cfg.MineCorpusMax,
			Budget:    cfg.MineBudget,
			// Idle means no client work anywhere: nothing queued and no
			// worker busy. Pre-generation re-checks this before every
			// pulse and yields as soon as a request arrives.
			Idle: func() bool {
				return s.reg.Gauge("server.queue_len").Value() == 0 &&
					s.reg.Gauge("server.jobs_running").Value() == 0
			},
			Registry: s.reg,
			Logger:   cfg.Logger,
		})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: %v", err)
		}
	}
	preregisterMetrics(s.reg)
	obs.RegisterRuntimeCollector(s.reg)
	// The shared DB reports its own counters (nearest scan/prune split,
	// evictions, snapshot skips) into the server registry.
	db.SetMetrics(s.reg)
	if cfg.DBMaxEntries > 0 {
		db.SetMaxEntries(cfg.DBMaxEntries)
	}
	s.reg.Gauge("server.queue_capacity").Set(float64(cfg.QueueDepth))
	s.reg.Gauge("server.workers").Set(float64(cfg.Workers))
	// cluster.owned_keys is recomputed at scrape time: the share of warm
	// entries this replica owns under the current membership.
	s.reg.AddCollector(func() {
		owned := 0
		for _, db := range s.allDBs() {
			for _, e := range db.Entries() {
				if s.cluster.OwnsLocally(e.Key) {
					owned++
				}
			}
		}
		s.reg.Gauge("cluster.owned_keys").Set(float64(owned))
	})
	return s, nil
}

// Cluster exposes the replica's membership view (standalone when no peers
// were configured).
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// ClusterHandler returns the internal v1 replication RPC, to be served on
// a private listener (cmd/paqoc-server's -cluster-listen), never on the
// public API address.
func (s *Server) ClusterHandler() http.Handler {
	return s.cluster.Handler(s.dbByFingerprint)
}

// remoteFor returns the cross-replica pulse source for a backend, or nil
// outside a multi-replica deployment.
func (s *Server) remoteFor(prof *device.Profile) pulse.Remote {
	if !s.cluster.Enabled() {
		return nil
	}
	return s.cluster.RemoteFor(prof.Fingerprint())
}

// dbByFingerprint resolves a replication RPC's backend fingerprint to the
// live database serving it. Only backends this replica has opened (the
// default one, plus any a request compiled for) resolve; an unknown
// fingerprint is refused — a fingerprint is a hash, so the profile it
// names cannot be reconstructed from it.
func (s *Server) dbByFingerprint(fp string) (*pulse.DB, bool) {
	s.fpmu.Lock()
	defer s.fpmu.Unlock()
	db, ok := s.dbsByFP[fp]
	return db, ok
}

// allDBs snapshots every live database (default backend first).
func (s *Server) allDBs() []*pulse.DB {
	out := []*pulse.DB{s.db}
	s.dbmu.Lock()
	for _, db := range s.dbs {
		out = append(out, db)
	}
	s.dbmu.Unlock()
	return out
}

// Registry exposes the shared metrics registry (served by GET /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// DB exposes the default backend's shared pulse database.
func (s *Server) DB() *pulse.DB { return s.db }

// profileFor resolves a request's backend name: empty selects the server
// default, anything else must name a registered or dynamic device profile.
func (s *Server) profileFor(name string) (*device.Profile, error) {
	if name == "" || name == s.profile.Name {
		return s.profile, nil
	}
	return device.Lookup(name)
}

// dbFor returns the pulse database for a job's backend, lazily creating a
// fingerprint-namespaced one for non-default backends. Those stay
// in-memory only: persistence (DBPath) is reserved for the default
// backend's database, which is also the one most requests warm.
func (s *Server) dbFor(prof *device.Profile) *pulse.DB {
	if prof.Name == s.profile.Name {
		return s.db
	}
	s.dbmu.Lock()
	defer s.dbmu.Unlock()
	db, ok := s.dbs[prof.Name]
	if !ok {
		db = pulse.NewDB()
		db.SetFingerprint(prof.Fingerprint())
		db.SetMetrics(s.reg)
		if s.cfg.DBMaxEntries > 0 {
			db.SetMaxEntries(s.cfg.DBMaxEntries)
		}
		s.dbs[prof.Name] = db
		s.fpmu.Lock()
		s.dbsByFP[prof.Fingerprint()] = db
		s.fpmu.Unlock()
		s.cfg.Logger.Info("pulse DB created", "backend", prof.Name, "fingerprint", prof.Fingerprint())
	}
	return db
}

// Start launches the worker pool and the periodic DB snapshotter, then
// marks the server ready.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if s.cfg.DBPath != "" && s.cfg.SnapshotInterval > 0 {
		s.snapWG.Add(1)
		go s.snapshotter()
	}
	if s.miner != nil {
		s.miner.Start()
	}
	s.ready.Store(true)
}

// Miner exposes the offline APA mining service (nil when disabled).
func (s *Server) Miner() *miner.Miner { return s.miner }

// Submit enqueues a job on its priority lane, failing fast when the
// server is draining, the lane is full, or the job's tenant is at its
// in-flight quota — the caller translates those into 503 and 429.
func (s *Server) Submit(j *Job) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.drain {
		return ErrDraining
	}
	if err := s.tenantAcquire(j.tenant()); err != nil {
		return err
	}
	lane := s.queue
	if j.priority == "high" {
		lane = s.queueHigh
	}
	select {
	case lane <- j:
		s.reg.Gauge("server.queue_len").Add(1)
		return nil
	default:
		s.tenantRelease(j.tenant())
		s.reg.Counter("server.rejected_queue_full").Inc()
		return ErrQueueFull
	}
}

// tenantAcquire admits one job against its tenant's in-flight cap.
func (s *Server) tenantAcquire(tenant string) error {
	if s.cfg.TenantMaxInflight <= 0 {
		return nil
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tenantInflight[tenant] >= s.cfg.TenantMaxInflight {
		s.reg.Counter("server.rejected_tenant_quota").Inc()
		return ErrTenantQuota
	}
	s.tenantInflight[tenant]++
	return nil
}

func (s *Server) tenantRelease(tenant string) {
	if s.cfg.TenantMaxInflight <= 0 {
		return
	}
	s.tmu.Lock()
	if s.tenantInflight[tenant] <= 1 {
		delete(s.tenantInflight, tenant)
	} else {
		s.tenantInflight[tenant]--
	}
	s.tmu.Unlock()
}

// worker consumes jobs until both lanes are closed and drained.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.nextJob()
		if !ok {
			return
		}
		s.reg.Gauge("server.queue_len").Add(-1)
		s.runJob(j)
	}
}

// nextJob takes the next job, preferring the high-priority lane: a
// non-blocking probe of the high lane first, then a fair blocking select
// over both. A closed, drained lane falls through to blocking on the
// other, so shutdown still drains every queued job before workers exit.
func (s *Server) nextJob() (*Job, bool) {
	select {
	case j, ok := <-s.queueHigh:
		if ok {
			return j, true
		}
		j, ok = <-s.queue
		return j, ok
	default:
	}
	select {
	case j, ok := <-s.queueHigh:
		if ok {
			return j, true
		}
		j, ok = <-s.queue
		return j, ok
	case j, ok := <-s.queue:
		if ok {
			return j, true
		}
		j, ok = <-s.queueHigh
		return j, ok
	}
}

// runJob executes one job under its deadline with panic isolation.
func (s *Server) runJob(j *Job) {
	running := s.reg.Gauge("server.jobs_running")
	running.Add(1)
	defer running.Add(-1)

	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	j.start()
	queueWait := msSince(j.submitted, j.started)
	s.reg.Histogram("server.queue_wait_ms", obs.LatencyBuckets).Observe(queueWait)
	s.cfg.Logger.Info("job running", "job_id", j.ID, "queue_wait_ms", queueWait)
	res, err := s.safeCompile(ctx, j)

	// Classify from the returned error chain, not ctx.Err(): the pipeline
	// propagates context errors (bare or %w-wrapped), and a genuine
	// compilation failure that returns just as the deadline expires must
	// surface as a failure (422), not be misread as a timeout or drain.
	timedOut := errors.Is(err, context.DeadlineExceeded)
	canceled := !timedOut && errors.Is(err, context.Canceled)
	outcome := "ok"
	switch {
	case err == nil:
		s.reg.Counter("server.jobs_completed").Inc()
	case timedOut:
		outcome = "timeout"
		s.reg.Counter("server.jobs_timeout").Inc()
	case canceled:
		outcome = "canceled"
		s.reg.Counter("server.jobs_failed").Inc()
	default:
		outcome = "failed"
		s.reg.Counter("server.jobs_failed").Inc()
	}
	j.finish(res, err, timedOut, canceled)
	s.tenantRelease(j.tenant())
	// End-to-end latency (submit → terminal) by outcome; run time alone is
	// the job status's run_ms.
	runMs := msSince(j.started, j.finished)
	s.reg.HistogramVec("server.job_ms", obs.LatencyBuckets, "outcome").
		WithLabelValues(outcome).
		Observe(msSince(j.submitted, j.finished))
	if err != nil {
		s.cfg.Logger.Error("job failed", "job_id", j.ID, "outcome", outcome, "run_ms", runMs, "error", err)
	} else {
		s.cfg.Logger.Info("job done", "job_id", j.ID, "run_ms", runMs)
	}
	for _, id := range s.jobs.retired(j) {
		s.cfg.Logger.Info("job evicted", "job_id", id)
	}
}

// safeCompile isolates panics: one bad circuit must not take down the
// process, only its own job.
func (s *Server) safeCompile(ctx context.Context, j *Job) (res *api.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("server.jobs_panicked").Inc()
			err = fmt.Errorf("server: job %s panicked: %v\n%s", j.ID, r, debug.Stack())
			res = nil
		}
	}()
	return s.compileFn(ctx, j)
}

// snapshotter persists the warm pulse database on a timer so a crash loses
// at most one interval of generated pulses.
func (s *Server) snapshotter() {
	defer s.snapWG.Done()
	tick := time.NewTicker(s.cfg.SnapshotInterval)
	defer tick.Stop()
	lastSaved := s.db.Len()
	for {
		select {
		case <-tick.C:
			if n := s.db.Len(); n != lastSaved {
				if err := s.saveDB(); err != nil {
					s.cfg.Logger.Error("pulse DB snapshot failed", "error", err)
					continue
				}
				lastSaved = n
			}
		case <-s.snapStop:
			return
		}
	}
}

// saveDB persists the shared database crash-safely (temp file + rename).
// Non-finite entries (diverged GRAPE runs) are skipped and logged rather
// than failing the snapshot — one poisoned entry must not wedge periodic
// persistence forever.
func (s *Server) saveDB() error {
	if s.cfg.DBPath == "" {
		return nil
	}
	rep, err := s.db.SaveFileWithReport(s.cfg.DBPath)
	if err != nil {
		return err
	}
	s.reg.Counter("server.db_snapshots").Inc()
	if rep.SkippedNonFinite > 0 {
		s.cfg.Logger.Warn("pulse DB snapshot skipped non-finite entries", "skipped", rep.SkippedNonFinite)
	}
	s.cfg.Logger.Info("pulse DB saved", "entries", rep.Entries, "path", s.cfg.DBPath)
	return nil
}

// Shutdown drains the server: intake stops immediately (readyz flips to
// 503, Submit returns ErrDraining), queued and running jobs get until
// ctx's deadline to finish, stragglers are cancelled through their job
// contexts, and the pulse database is persisted before returning. The
// returned error reports a missed drain deadline or a failed final save.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	if s.drain {
		s.qmu.Unlock()
		return nil
	}
	s.drain = true
	close(s.queue) // workers finish the backlog on both lanes, then exit
	close(s.queueHigh)
	s.qmu.Unlock()
	s.ready.Store(false)

	// Stop the miner first: its pre-generation lane is the lowest-priority
	// work in the process, and its generators are ctx-aware, so an
	// in-flight offline optimization is cancelled promptly and never
	// delays the drain or the final snapshot.
	if s.miner != nil {
		s.miner.Stop()
	}
	if s.started.Load() {
		close(s.snapStop)
		s.snapWG.Wait()
	}

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: drain deadline exceeded, cancelling in-flight jobs")
		s.baseCancel() // jobs are ctx-aware and exit promptly
		<-done
	}
	s.baseCancel()

	if err := s.saveDB(); err != nil {
		if drainErr != nil {
			return fmt.Errorf("%v; final save: %v", drainErr, err)
		}
		return fmt.Errorf("server: final save: %v", err)
	}
	return drainErr
}

// preregisterMetrics creates the canonical instrument set up front so
// GET /metrics always serves a stable schema, zero-valued until touched.
func preregisterMetrics(r *obs.Registry) {
	for _, name := range []string{
		"server.requests", "server.requests_sync", "server.requests_async",
		"server.rejected_queue_full", "server.bad_requests",
		"server.jobs_completed", "server.jobs_failed", "server.jobs_timeout",
		"server.jobs_panicked", "server.db_snapshots",
		"paqoc.merge.rounds", "paqoc.merge.candidates", "paqoc.merge.cache_hits",
		"paqoc.merge.applied", "paqoc.merge.rejected", "paqoc.merge.preprocessed",
		"paqoc.emit.blocks", "paqoc.emit.split_fallbacks",
		"grape.iterations", "grape.binsearch.probes", "grape.generated",
		"grape.db_hits", "grape.db_permuted_hits", "grape.warm_starts", "grape.expm",
		"grape.probe_prop_reuse",
		"pulsesim.slices", "pulsesim.expm", "pulsesim.esp_evals", "pulsesim.esp_gates",
		"mining.subcircuits_enumerated", "mining.pruned_qubit_cap", "mining.patterns",
		"latency.model.probes", "latency.model.db_hits",
		"engine.tasks", "engine.completed", "pulse.db_dedups",
		"server.rejected_tenant_quota",
		"cluster.peer_hits", "cluster.peer_misses", "cluster.peer_errors",
		"cluster.publishes", "cluster.breaker_opens", "cluster.breaker_skips",
		"cluster.serve_hits", "cluster.serve_merges", "grape.remote_hits",
		"pulse.nearest_scanned", "pulse.nearest_pruned",
		"pulse.evictions", "pulse.save_skipped_nonfinite",
		"miner.pregenerated", "miner.pregen_hits", "miner.idle_runs",
		"miner.yields", "miner.ingest_dropped",
	} {
		r.Counter(name)
	}
	r.Counter("obs.convergence_dropped")
	for _, name := range []string{
		"server.queue_len", "server.queue_capacity", "server.workers",
		"server.jobs_running", "cluster.owned_keys",
		"engine.inflight", "engine.active_workers", "engine.active_workers.peak",
		"engine.queued", "engine.queued.peak",
		"miner.patterns_tracked", "miner.corpus_circuits",
	} {
		r.Gauge(name)
	}
	// Latency distributions: stable schema from the first scrape, and one
	// place that fixes each family's label set and bucket layout.
	r.Histogram("server.queue_wait_ms", obs.LatencyBuckets)
	r.Histogram("engine.task_ms", obs.LatencyBuckets)
	r.Histogram("miner.pregen_ms", obs.LatencyBuckets)
	r.HistogramVec("server.job_ms", obs.LatencyBuckets, "outcome")
	r.HistogramVec(obs.StageMetric, obs.LatencyBuckets, "stage")

	for name, help := range map[string]string{
		"server.queue_wait_ms":         "Time jobs spent queued before a worker picked them up, milliseconds.",
		"server.job_ms":                "End-to-end job latency (submit to terminal state) by outcome, milliseconds.",
		obs.StageMetric:                "Per-pipeline-stage wall clock by stage, milliseconds.",
		"engine.task_ms":               "Worker-pool task wall clock, milliseconds.",
		"server.jobs_completed":        "Jobs that reached the done state.",
		"server.jobs_failed":           "Jobs that failed (including cancellations).",
		"server.jobs_timeout":          "Jobs that exceeded their deadline.",
		"server.rejected_queue_full":   "Compile requests rejected because the job queue was full.",
		"server.rejected_tenant_quota": "Compile requests rejected because the tenant was at its in-flight cap.",
		"cluster.peer_hits":            "Pulse-DB misses served by a peer replica's warm store.",
		"cluster.peer_errors":          "Peer RPCs that failed (transport error, timeout, or bad response).",
		"cluster.owned_keys":           "Warm-store entries whose rendezvous owner is this replica (recomputed per scrape).",
		"server.queue_len":             "Jobs currently queued.",
		"server.jobs_running":          "Jobs currently executing.",
		"obs.convergence_dropped":      "GRAPE convergence-trace points discarded by the per-optimization cap.",
		"grape.iterations":             "GRAPE optimizer iterations executed.",
		"pulse.db_dedups":              "Generator runs avoided by singleflight coalescing on the pulse DB.",
		"miner.pregenerated":           "APA-basis pulses pre-generated by the offline miner during idle capacity.",
		"miner.pregen_hits":            "Uses of pre-generated pulse entries by later compile requests.",
		"miner.idle_runs":              "Mining runs that found the job queue idle and entered the pre-generation lane.",
		"miner.yields":                 "Pre-generation lanes abandoned mid-run because client work arrived.",
		"miner.ingest_dropped":         "Compile-path observations dropped because the miner ingest queue was full.",
		"miner.patterns_tracked":       "Cross-request frequent patterns currently at or above the support threshold.",
		"miner.corpus_circuits":        "Circuits currently in the miner's bounded corpus across backends.",
		"miner.pregen_ms":              "Per-pulse offline pre-generation wall clock, milliseconds.",
	} {
		r.SetHelp(name, help)
	}
}
