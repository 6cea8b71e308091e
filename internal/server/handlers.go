package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/latency"
	"paqoc/internal/mining"
)

// maxBodyBytes bounds a compile request body (QASM sources are text; 8 MiB
// is far beyond any benchmark in the suite).
const maxBodyBytes = 8 << 20

// retryAfter is the Retry-After hint, in seconds, sent with 429
// responses.
const retryAfter = "1"

// Handler returns the service's HTTP API:
//
//	POST /v1/compile          compile a circuit (sync for small circuits, else 202 + job ID)
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/events live job stream (Server-Sent Events): stage
//	                          transitions, sampled GRAPE convergence, state changes
//	GET  /v1/mining/status    offline APA miner state (404 when mining is disabled)
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining)
//	GET  /metrics             metrics snapshot (?format=text for a table,
//	                          ?format=prom for Prometheus text exposition)
//	     /debug/pprof         the standard profiling endpoints (Config.EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/mining/status", s.handleMiningStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.Handle("/debug/pprof/", PprofHandler())
	}
	return mux
}

// PprofHandler returns the standard net/http/pprof endpoints rooted at
// /debug/pprof/. They are unauthenticated and can trigger CPU-profile
// load, so Handler mounts them only when Config.EnablePprof is set;
// cmd/paqoc-server instead serves them on a separate loopback-only
// listener via its -pprof flag.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	var req api.CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("decoding request: %v", err))
		return
	}
	logical, err := parseSource(&req)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	prof, err := s.profileFor(req.Backend)
	if err != nil {
		s.reg.Counter("server.bad_requests").Inc()
		api.WriteError(w, http.StatusBadRequest, api.CodeUnknownBackend, err.Error())
		return
	}
	if n := prof.Topology().NumQubits; logical.NumQubits > n {
		// Routing would refuse it mid-compile: refuse it before admission.
		s.reg.Counter("server.bad_requests").Inc()
		api.WriteError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("circuit has %d qubits but backend %s has %d", logical.NumQubits, prof.Name, n))
		return
	}
	sync, err := s.pickMode(&req, len(logical.Gates))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	switch req.Priority {
	case "", "normal", "high":
	default:
		s.badRequest(w, fmt.Errorf("bad priority %q (want normal or high)", req.Priority))
		return
	}
	if req.MaxN < 0 || req.MaxN > latency.MaxQubits {
		// Every search ranks merges with the analytical model, which
		// estimates groups of at most latency.MaxQubits qubits: refuse a
		// cap it cannot serve before admission, not mid-compile.
		s.reg.Counter("server.bad_requests").Inc()
		api.WriteError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("max_n %d out of range (want 1 to %d, or 0 for the default)", req.MaxN, latency.MaxQubits))
		return
	}
	if req.Fidelity < 0 || req.Fidelity >= 1 {
		// A gate fidelity of 1 or more is unreachable, so GRAPE would
		// search every duration before failing: refuse it before
		// admission. A negative target is meaningless, not the default.
		s.reg.Counter("server.bad_requests").Inc()
		api.WriteError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("fidelity %v out of range (want above 0 and below 1, or 0 for the default)", req.Fidelity))
		return
	}
	if req.MinSupport != 0 {
		// Validate the mining knob against the same rules the miner itself
		// enforces: an invalid value is a distinct "invalid_argument", not
		// silently clamped to the default (that clamp was a bug).
		mopts := mining.DefaultOptions()
		mopts.MinSupport = req.MinSupport
		if err := mopts.Validate(); err != nil {
			s.reg.Counter("server.bad_requests").Inc()
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
			return
		}
	}

	j := s.jobs.add(&req, logical, prof, s.jobTimeout(&req))
	if err := s.Submit(j); err != nil {
		// The job never entered the queue: drop it from the store now, or
		// its request body and circuit would be retained forever (no
		// terminal state means retention-based eviction never fires).
		s.jobs.remove(j.ID)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfter)
			api.WriteError(w, http.StatusTooManyRequests, api.CodeQueueFull, err.Error())
		case errors.Is(err, ErrTenantQuota):
			w.Header().Set("Retry-After", retryAfter)
			api.WriteError(w, http.StatusTooManyRequests, api.CodeTenantQuota, err.Error())
		case errors.Is(err, ErrDraining):
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeDraining, err.Error())
		default:
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		}
		return
	}
	s.cfg.Logger.Info("job queued", "job_id", j.ID, "backend", prof.Name, "gates", len(logical.Gates), "sync", sync, "priority", j.priority)

	if !sync {
		s.reg.Counter("server.requests_async").Inc()
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, api.CompileResponse{JobStatus: j.status(), Poll: "/v1/jobs/" + j.ID})
		return
	}

	s.reg.Counter("server.requests_sync").Inc()
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, api.CompileResponse{JobStatus: j.status(), Poll: "/v1/jobs/" + j.ID})
		return
	}
	st := j.status()
	writeJSON(w, statusCodeFor(st), api.CompileResponse{JobStatus: st})
}

// handleMiningStatus serves the offline miner's live state. A server
// without mining enabled has no such resource: 404 with the standard
// envelope, so clients can distinguish "disabled" from a transport error.
func (s *Server) handleMiningStatus(w http.ResponseWriter, r *http.Request) {
	if s.miner == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
			"mining is disabled on this server (start with -mine-interval > 0)")
		return
	}
	writeJSON(w, http.StatusOK, s.miner.Status())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.CodeJobNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	switch r.URL.Query().Get("format") {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			s.cfg.Logger.Error("metrics exposition failed", "error", err)
		}
	default:
		w.Header().Set("Content-Type", "application/json")
		if err := snap.WriteJSON(w); err != nil {
			s.cfg.Logger.Error("metrics encoding failed", "error", err)
		}
	}
}

// pickMode resolves the request's sync/async choice; auto selects sync for
// circuits at or under the configured gate limit.
func (s *Server) pickMode(req *api.CompileRequest, gates int) (sync bool, err error) {
	switch req.Mode {
	case "sync":
		return true, nil
	case "async":
		return false, nil
	case "", "auto":
		return gates <= s.cfg.SyncGateLimit, nil
	default:
		return false, fmt.Errorf("bad mode %q (want sync, async, or auto)", req.Mode)
	}
}

// jobTimeout resolves the job deadline: the client's request clamped to
// the configured maximum, or the server default.
func (s *Server) jobTimeout(req *api.CompileRequest) time.Duration {
	if req.TimeoutMs <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(req.TimeoutMs) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// jobWorkers resolves the job's intra-job pulse-generation pool width:
// the client's request clamped to the configured maximum, mirroring how
// jobTimeout clamps deadlines — a request cannot demand an arbitrarily
// wide engine pool on top of the server's own worker pool.
func (s *Server) jobWorkers(req *api.CompileRequest) int {
	if req.Workers > s.cfg.MaxJobWorkers {
		return s.cfg.MaxJobWorkers
	}
	return req.Workers
}

// statusCodeFor maps a terminal job status onto the synchronous response
// code: 200 done, 504 deadline exceeded, 503 cancelled by shutdown, 422
// compilation failure. Non-2xx synchronous bodies are deliberately the
// job's JobStatus, not the error envelope: the job is a resource that
// exists and carries its own failure detail.
func statusCodeFor(st api.JobStatus) int {
	switch {
	case st.State == api.StateDone:
		return http.StatusOK
	case st.TimedOut:
		return http.StatusGatewayTimeout
	case st.Canceled:
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.reg.Counter("server.bad_requests").Inc()
	api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
