package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"paqoc/internal/api"
)

// envelopeCases are requests refused before admission, with the status
// and envelope code each must get.
var envelopeCases = []struct {
	name     string
	req      api.CompileRequest
	wantCode int
	wantErr  string
}{
	{"no source", api.CompileRequest{}, http.StatusBadRequest, api.CodeBadRequest},
	{"unknown backend", api.CompileRequest{Circuit: tinyCircuit, Backend: "ion-trap-9000"}, http.StatusBadRequest, api.CodeUnknownBackend},
	{"oversized backend", api.CompileRequest{Circuit: tinyCircuit, Backend: "xy-grid-4294967296x4294967296"}, http.StatusBadRequest, api.CodeUnknownBackend},
	{"bad priority", api.CompileRequest{Circuit: tinyCircuit, Priority: "urgent"}, http.StatusBadRequest, api.CodeBadRequest},
	{"max_n 4", api.CompileRequest{Circuit: tinyCircuit, MaxN: 4}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"max_n -1", api.CompileRequest{Circuit: tinyCircuit, MaxN: -1}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"fidelity 1.5", api.CompileRequest{Circuit: tinyCircuit, Grape: true, Fidelity: 1.5}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"fidelity 1", api.CompileRequest{Circuit: tinyCircuit, Grape: true, Fidelity: 1}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"fidelity -2", api.CompileRequest{Circuit: tinyCircuit, Fidelity: -2}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"wider than backend", api.CompileRequest{Circuit: "qubits 30\ncx 0 29\n", Backend: "xy-grid-1x2"}, http.StatusBadRequest, api.CodeInvalidArgument},
	{"gate with no name", api.CompileRequest{Circuit: "qubits 2\n(0.5) 0\n"}, http.StatusBadRequest, api.CodeBadRequest},
}

// TestErrorEnvelopeShape pins the versioned wire contract for failures:
// every client-addressable error is {"error":{"code","message"}} with a
// machine-readable code, and the transport status matches the code.
func TestErrorEnvelopeShape(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postCompileRaw(t, ts, tc.req)
			if code != tc.wantCode {
				t.Errorf("HTTP %d, want %d", code, tc.wantCode)
			}
			if e := errorEnvelope(t, raw); e.Code != tc.wantErr || e.Message == "" {
				t.Errorf("envelope %+v, want code %q with a message", e, tc.wantErr)
			}
		})
	}
	// Every case is refused before admission: none reaches a worker.
	if got := s.reg.Counter("server.bad_requests").Value(); got != int64(len(envelopeCases)) {
		t.Errorf("server.bad_requests = %d, want %d", got, len(envelopeCases))
	}
	if got := s.reg.Counter("server.jobs_failed").Value(); got != 0 {
		t.Errorf("server.jobs_failed = %d, want 0", got)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	if e := errorEnvelope(t, raw); e.Code != api.CodeJobNotFound {
		t.Errorf("unknown job envelope = %+v, want code %q", e, api.CodeJobNotFound)
	}
}

// FuzzCompileRequest posts arbitrary bodies to POST /v1/compile on one
// server whose compilation is stubbed. No body may panic the handler,
// every status is one the API documents, and every 400 and 429 carries
// the error envelope with a code.
func FuzzCompileRequest(f *testing.F) {
	for _, tc := range envelopeCases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s, _ := newTestServer(f, Config{Workers: 1})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		return &api.Result{Blocks: 1}, nil
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusBadRequest || rec.Code == http.StatusTooManyRequests {
			errorEnvelope(t, rec.Body.Bytes())
		}
	})
}

// TestTenantQuota: with a per-tenant inflight cap of one, a tenant's
// second concurrent job is rejected 429/tenant_quota (with Retry-After)
// while other tenants are unaffected, and finishing a job frees the slot.
func TestTenantQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, TenantMaxInflight: 1})
	running := make(chan struct{}, 8)
	release := make(chan struct{})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		running <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &api.Result{}, nil
	}

	code, _ := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async", Tenant: "alice"})
	if code != http.StatusAccepted {
		t.Fatalf("alice #1: HTTP %d, want 202", code)
	}
	<-running

	code, raw := postCompileRaw(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async", Tenant: "alice"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice #2: HTTP %d, want 429", code)
	}
	if e := errorEnvelope(t, raw); e.Code != api.CodeTenantQuota {
		t.Errorf("alice #2 envelope = %+v, want code %q", e, api.CodeTenantQuota)
	}

	code, _ = postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async", Tenant: "bob"})
	if code != http.StatusAccepted {
		t.Fatalf("bob while alice is capped: HTTP %d, want 202", code)
	}

	close(release)
	waitIdle(t, s)
	code, _ = postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync", Tenant: "alice"})
	if code != http.StatusOK {
		t.Fatalf("alice after quota freed: HTTP %d, want 200", code)
	}
}

// TestBackToBackSyncFreesTenantSlot: a synchronous reply means the job is
// settled. With a one-job tenant cap, back-to-back synchronous requests
// from one tenant never hit the quota, and each reply finds its job's
// end-to-end latency already recorded in server.job_ms.
func TestBackToBackSyncFreesTenantSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, TenantMaxInflight: 1})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		return &api.Result{}, nil
	}
	recorded := func() int64 {
		var n int64
		for _, se := range s.reg.Snapshot().HistogramVecs["server.job_ms"].Series {
			n += se.Count
		}
		return n
	}
	const requests = 2000
	for i := int64(1); i <= requests; i++ {
		code, raw := postCompileRaw(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync", Tenant: "alice"})
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, code, raw)
		}
		if got := recorded(); got != i {
			t.Fatalf("after reply %d, server.job_ms holds %d jobs", i, got)
		}
	}
}

// TestPriorityLane: with the single worker wedged, a high-priority job
// submitted after a normal one still runs first — the worker drains the
// high lane before the normal lane.
func TestPriorityLane(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var mu sync.Mutex
	var order []string
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	first := make(chan struct{})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		mu.Lock()
		order = append(order, j.priority+":"+j.req.Circuit)
		n := len(order)
		mu.Unlock()
		started <- struct{}{}
		if n == 1 {
			<-first // hold the worker until both queued jobs are in their lanes
		}
		select {
		case <-release:
		default:
		}
		return &api.Result{}, nil
	}

	submit := func(prio string) {
		t.Helper()
		code, _ := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async", Priority: prio})
		if code != http.StatusAccepted {
			t.Fatalf("submit %q: HTTP %d, want 202", prio, code)
		}
	}
	submit("normal") // occupies the worker
	<-started
	submit("normal") // waits in the normal lane
	submit("high")   // jumps it via the high lane
	close(first)
	close(release)
	<-started
	<-started
	waitIdle(t, s)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "high:"+tinyCircuit {
		t.Fatalf("execution order = %v, want the high-priority job second", order)
	}
}

// waitIdle blocks until every submitted job has finished.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	s.jobs.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs {
		jobs = append(jobs, j)
	}
	s.jobs.mu.Unlock()
	for _, j := range jobs {
		<-j.done
	}
}
