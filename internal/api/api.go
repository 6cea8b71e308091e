// Package api defines the versioned wire types of the paqoc-server HTTP
// surface: the public v1 compile API (POST /v1/compile, GET /v1/jobs/{id},
// the SSE job stream), the uniform error envelope every handler speaks,
// and the entry encoding of the internal v1 replication RPC. Server
// handlers, the cluster client, CLIs, and tests all share these named
// types — a client no longer reverse-engineers handler-local structs.
//
// Compatibility contract: types here describe wire version 1 (the /v1 and
// /internal/v1 path prefixes). Fields are only added, never renamed or
// repurposed; a breaking change mints /v2 types alongside these.
package api

import (
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// CompileRequest is the POST /v1/compile body. Exactly one circuit source
// (QASM, Circuit, Bench) must be set; the remaining knobs mirror the CLI's
// APA / GRAPE / fidelity / deadline surface.
type CompileRequest struct {
	// QASM is OpenQASM 2.0 source.
	QASM string `json:"qasm,omitempty"`
	// Circuit is the native text circuit format (circuit.Parse).
	Circuit string `json:"circuit,omitempty"`
	// Bench names a built-in Table I benchmark.
	Bench string `json:"bench,omitempty"`

	// Backend names the device profile to compile against (a registered
	// profile or a dynamic name like "xy-grid-3x4"); empty selects the
	// server's default backend. Unknown names are rejected with 400 and
	// error code "unknown_backend"; a circuit with more qubits than the
	// backend's topology, with 400 and code "invalid_argument".
	Backend string `json:"backend,omitempty"`

	// Tenant identifies the submitting principal for per-tenant quota
	// accounting: when the server configures TenantMaxInflight, a tenant
	// at its in-flight cap is rejected with 429 and error code
	// "tenant_quota" instead of starving the fleet. Empty is a tenant of
	// its own (anonymous traffic shares one bucket).
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the queue lane: "high" jobs are preferred by idle
	// workers over "normal" (the default). Unknown values are rejected
	// with 400.
	Priority string `json:"priority,omitempty"`

	// APA enables the frequent-subcircuit miner (paqoc(M=inf)); off
	// compiles with customized gates only (paqoc(M=0)).
	APA bool `json:"apa,omitempty"`
	// Grape emits final pulses with the real optimizer against the
	// server's shared warm pulse database; off uses the calibrated
	// analytical model.
	Grape bool `json:"grape,omitempty"`
	// Fidelity is the per-gate target: above 0 and below 1, or 0 for the
	// default 0.999. Other values are rejected with 400 and code
	// "invalid_argument".
	Fidelity float64 `json:"fidelity,omitempty"`
	// TimeoutMs bounds the job's run time; 0 selects the server default.
	// The deadline is threaded as a context deadline into the GRAPE and
	// simulator hot loops, so an expired job releases its worker promptly.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Mode forces "sync" or "async"; "" / "auto" picks sync for circuits at
	// or under the server's sync gate limit.
	Mode string `json:"mode,omitempty"`
	// MaxN caps customized-gate width: 1 to latency.MaxQubits (3, the
	// widest group the ranking model estimates), or 0 for the default 3.
	// Other values are rejected with 400 and code "invalid_argument".
	MaxN int `json:"max_n,omitempty"`
	// MinSupport overrides the APA miner's recurrence threshold for this
	// request (default 2). Negative values are rejected with 400 and error
	// code "invalid_argument".
	MinSupport int `json:"min_support,omitempty"`
	// Workers is the intra-job pulse-generation pool width (default 1:
	// cross-request parallelism comes from the server's own worker pool).
	Workers int `json:"workers,omitempty"`
	// IncludeSchedules attaches per-gate pulse schedules (ScheduleJSON) to
	// the result. Off by default: schedules dominate response size.
	IncludeSchedules bool `json:"include_schedules,omitempty"`
}

// JobState is the lifecycle of a compilation job. Transitions are strictly
// queued → running → {done, failed}; a failed job records whether the
// failure was its deadline expiring (timeout) or the server draining
// (canceled) so clients can map it onto 504/503 semantics.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// JobStatus is the wire representation of a job, served by
// GET /v1/jobs/{id} and embedded in synchronous compile responses.
type JobStatus struct {
	JobID    string   `json:"job_id"`
	State    JobState `json:"status"`
	Backend  string   `json:"backend,omitempty"`
	Tenant   string   `json:"tenant,omitempty"`
	Priority string   `json:"priority,omitempty"`
	Error    string   `json:"error,omitempty"`
	TimedOut bool     `json:"timed_out,omitempty"`
	Canceled bool     `json:"canceled,omitempty"`
	QueuedMs float64  `json:"queued_ms"`
	RunMs    float64  `json:"run_ms,omitempty"`
	Result   *Result  `json:"result,omitempty"`
}

// CompileResponse is the POST /v1/compile body on success: the job status
// (terminal for sync requests, queued for async ones) plus, for async
// submissions, the URL to poll.
type CompileResponse struct {
	JobStatus
	Poll string `json:"poll,omitempty"`
}

// Result is a finished compilation: the latency/fidelity summary, the
// per-customized-gate breakdown (with schedule payloads on request), and
// the job's request-scoped per-stage timing.
type Result struct {
	Qubits           int     `json:"qubits"`
	LogicalGates     int     `json:"logical_gates"`
	PhysicalGates    int     `json:"physical_gates"`
	Swaps            int     `json:"swaps"`
	Blocks           int     `json:"blocks"`
	APAPatterns      int     `json:"apa_patterns,omitempty"`
	LatencyDt        float64 `json:"latency_dt"`
	InitialLatencyDt float64 `json:"initial_latency_dt"`
	ReductionPct     float64 `json:"reduction_pct"`
	ESP              float64 `json:"esp"`
	CompileCostSec   float64 `json:"compile_cost_sec"`
	OfflineCostSec   float64 `json:"offline_cost_sec,omitempty"`
	WallMs           float64 `json:"wall_ms"`
	// DBEntries is the shared pulse database size after this job — the
	// warmth the next request inherits.
	DBEntries int `json:"db_entries"`

	Gates  []GateResult `json:"gates,omitempty"`
	Stages []Stage      `json:"stages,omitempty"`
}

// GateResult is one customized gate of the output.
type GateResult struct {
	Gate      string          `json:"gate"`
	Qubits    []int           `json:"qubits"`
	APA       bool            `json:"apa,omitempty"`
	LatencyDt float64         `json:"latency_dt"`
	Fidelity  float64         `json:"fidelity"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	Schedule  *pulse.Schedule `json:"schedule,omitempty"`
}

// Stage is one aggregated span path from the job's request-scoped tracer.
type Stage struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	Ms    float64 `json:"ms"`
}

// MiningStatus is the GET /v1/mining/status body: the offline APA miner's
// configuration and live cross-request statistics. When the miner is
// disabled the endpoint returns 404 with the standard error envelope
// instead of this type.
type MiningStatus struct {
	Enabled    bool  `json:"enabled"`
	IntervalMs int64 `json:"interval_ms,omitempty"`
	MinSupport int   `json:"min_support,omitempty"`
	CorpusMax  int   `json:"corpus_max,omitempty"`
	Budget     int   `json:"budget,omitempty"`

	// Aggregates across every backend the miner tracks.
	CorpusCircuits  int   `json:"corpus_circuits"`
	PatternsTracked int   `json:"patterns_tracked"`
	Pregenerated    int64 `json:"pregenerated"`
	PregenHits      int64 `json:"pregen_hits"`
	IdleRuns        int64 `json:"idle_runs"`
	Yields          int64 `json:"yields"`

	Backends []MiningBackendStatus `json:"backends,omitempty"`
}

// MiningBackendStatus is one backend fingerprint's slice of the miner.
type MiningBackendStatus struct {
	Backend         string          `json:"backend"`
	Fingerprint     string          `json:"fingerprint"`
	CorpusCircuits  int             `json:"corpus_circuits"`
	PatternsTracked int             `json:"patterns_tracked"`
	Pregenerated    int             `json:"pregenerated"`
	TopPatterns     []MiningPattern `json:"top_patterns,omitempty"`
}

// MiningPattern is one cross-request frequent subcircuit as reported by
// the mining status resource, ranked by Coverage.
type MiningPattern struct {
	Signature    string `json:"signature"`
	GateCount    int    `json:"gate_count"`
	QubitCount   int    `json:"qubit_count"`
	Support      int    `json:"support"`
	Circuits     int    `json:"circuits"`
	Coverage     int    `json:"coverage"`
	Pregenerated bool   `json:"pregenerated,omitempty"`
}

// Event is the payload of one Server-Sent Event on the live job stream
// (GET /v1/jobs/{id}/events): a pipeline stage transition, a sampled GRAPE
// convergence point, or a job state change, discriminated by Type
// ("stage" | "convergence" | "state"). Each SSE frame carries Seq as its
// id and Type as its event name; the stream ends with an "event: done"
// sentinel after the terminal state event.
type Event = obs.Event

// PulseEntry is the entry encoding of the internal replication RPC
// (GET/PUT /internal/v1/pulse/{fingerprint}/{key}) and of snapshot
// shipping (PUT /internal/v1/snapshot/{fingerprint}) — one pulse-database
// entry as it crosses a process boundary, identical to the on-disk
// snapshot entry format.
type PulseEntry = pulse.WireEntry

// MergeReport is the PUT /internal/v1/snapshot/{fingerprint} response
// body: how the shipped snapshot merged against the receiver's store under
// the keep-higher-fidelity conflict rule.
type MergeReport = pulse.MergeReport
