package server

import (
	"paqoc/internal/api"

	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paqoc/internal/obs"
)

// quiet silences service logs in tests (writing to the test log is unsafe
// from job goroutines that may outlive a failing test).
var quiet = obs.NewLogger(io.Discard, obs.LevelError)

// newTestServer builds and starts a server with test-friendly defaults.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

const tinyCircuit = "qubits 2\ncx 0 1\n"

// postCompile posts a compile request and decodes the response body.
// Error-envelope responses ({"error":{code,message}}) fold into the
// returned status: the code lands in out.Error so callers can assert on
// it uniformly.
func postCompile(t *testing.T, ts *httptest.Server, req api.CompileRequest) (int, api.CompileResponse) {
	t.Helper()
	code, raw := postCompileRaw(t, ts, req)
	var out api.CompileResponse
	var env api.ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		out.Error = env.Error.Code + ": " + env.Error.Message
		return code, out
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v\n%s", code, err, raw)
	}
	return code, out
}

// postCompileRaw posts a compile request and returns the raw body.
func postCompileRaw(t *testing.T, ts *httptest.Server, req api.CompileRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// errorEnvelope decodes raw as the versioned error envelope, failing the
// test if the body has any other shape.
func errorEnvelope(t *testing.T, raw []byte) api.Error {
	t.Helper()
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code == "" {
		t.Fatalf("body is not an error envelope: %s", raw)
	}
	return *env.Error
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []api.CompileRequest{
		{},                                   // no source
		{Circuit: tinyCircuit, Bench: "qft"}, // two sources
		{Circuit: "qubits two"},              // malformed circuit
		{QASM: "OPENQASM 2.0; frobnicate;"},  // malformed qasm
		{Bench: "no-such-benchmark"},
		{Circuit: tinyCircuit, Mode: "sometimes"},
	}
	for i, req := range cases {
		code, _ := postCompile(t, ts, req)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d, want 400", i, code)
		}
	}
}

// TestQueueFullBackpressure: with one worker wedged and a one-slot queue,
// the third job is rejected with 429 and a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
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

	async := api.CompileRequest{Circuit: tinyCircuit, Mode: "async"}
	code, _ := postCompile(t, ts, async) // occupies the worker
	if code != http.StatusAccepted {
		t.Fatalf("first job: HTTP %d, want 202", code)
	}
	<-running
	code, _ = postCompile(t, ts, async) // occupies the queue slot
	if code != http.StatusAccepted {
		t.Fatalf("second job: HTTP %d, want 202", code)
	}

	body, _ := json.Marshal(async)
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if v := s.reg.Counter("server.rejected_queue_full").Value(); v != 1 {
		t.Errorf("server.rejected_queue_full = %d, want 1", v)
	}
	// The rejected job must not linger in the store: it never reaches a
	// terminal state, so leaving it would leak its request forever.
	s.jobs.mu.Lock()
	stored := len(s.jobs.jobs)
	s.jobs.mu.Unlock()
	if stored != 2 {
		t.Errorf("job store holds %d jobs after the 429, want 2 (rejected job leaked)", stored)
	}
	close(release)
}

// TestPanicIsolation: a panicking compilation fails its own job and the
// server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		if strings.Contains(j.req.Circuit, "# boom") {
			panic("synthetic compiler bug")
		}
		return &api.Result{Blocks: 1}, nil
	}

	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit + "# boom\n", Mode: "sync"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("panicking job: HTTP %d, want 422", code)
	}
	if out.State != api.StateFailed || !strings.Contains(out.Error, "panicked") {
		t.Fatalf("panicking job status = %+v", out.JobStatus)
	}

	code, out = postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync"})
	if code != http.StatusOK || out.State != api.StateDone {
		t.Fatalf("server wedged after panic: HTTP %d, status %+v", code, out.JobStatus)
	}
	if v := s.reg.Counter("server.jobs_panicked").Value(); v != 1 {
		t.Errorf("server.jobs_panicked = %d, want 1", v)
	}
}

// TestAsyncJobLifecycle: an async submission is pollable through queued/
// running to done, and unknown job IDs 404.
func TestAsyncJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		<-release
		return &api.Result{Blocks: 3}, nil
	}

	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async"})
	if code != http.StatusAccepted || out.Poll == "" {
		t.Fatalf("async submit: HTTP %d, %+v", code, out)
	}
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + out.Poll)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == api.StateDone {
			if st.Result == nil || st.Result.Blocks != 3 {
				t.Fatalf("done status carries no result: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestHealthAndReady: healthz is always 200; readyz flips to 503 once the
// server drains, and new submissions are refused with 503.
func TestHealthAndReady(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
}

// TestDrainRefusesNewWork: after Shutdown begins, readyz serves 503 and
// compile requests are refused with 503.
func TestDrainRefusesNewWork(t *testing.T) {
	cfg := Config{Workers: 1, Logger: quiet}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: %d, want 503", resp.StatusCode)
	}
	code, _ := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "async"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("compile while drained: HTTP %d, want 503", code)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDeadlineCancelsStragglers: a job that only exits on ctx
// cancellation is cancelled when the drain deadline passes, and Shutdown
// reports the missed deadline.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	cfg := Config{Workers: 1, Logger: quiet}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	running := make(chan struct{})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j := s.jobs.add(&api.CompileRequest{Circuit: tinyCircuit}, nil, s.profile, time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown met an unmeetable drain deadline without error")
	}
	<-j.done
	st := j.status()
	if st.State != api.StateFailed || !st.Canceled {
		t.Fatalf("straggler status = %+v, want failed+canceled", st)
	}
}

// TestSubmitDirectQueueFull exercises Submit without HTTP.
func TestSubmitDirectQueueFull(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1, Logger: quiet}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: nothing consumes the queue, so the single slot fills.
	j1 := s.jobs.add(&api.CompileRequest{}, nil, s.profile, time.Second)
	if err := s.Submit(j1); err != nil {
		t.Fatal(err)
	}
	j2 := s.jobs.add(&api.CompileRequest{}, nil, s.profile, time.Second)
	if err := s.Submit(j2); err != ErrQueueFull {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
}

// TestJobRetention: finished jobs beyond the cap are evicted oldest-first.
func TestJobRetention(t *testing.T) {
	store := newJobStore(2)
	var ids []string
	for i := 0; i < 4; i++ {
		j := store.add(&api.CompileRequest{}, nil, nil, time.Second)
		j.finish(time.Now(), &api.Result{}, nil, false, false)
		store.retired(j)
		ids = append(ids, j.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := store.get(id); ok {
			t.Errorf("job %s not evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := store.get(id); !ok {
			t.Errorf("job %s evicted too early", id)
		}
	}
}

func TestPickMode(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SyncGateLimit: 10})
	for _, tc := range []struct {
		mode  string
		gates int
		sync  bool
	}{
		{"sync", 1000, true},
		{"async", 1, false},
		{"", 10, true},
		{"", 11, false},
		{"auto", 3, true},
	} {
		sync, err := s.pickMode(&api.CompileRequest{Mode: tc.mode}, tc.gates)
		if err != nil || sync != tc.sync {
			t.Errorf("pickMode(%q, %d) = %v, %v; want %v", tc.mode, tc.gates, sync, err, tc.sync)
		}
	}
	if _, err := s.pickMode(&api.CompileRequest{Mode: "nope"}, 1); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestJobTimeoutClamp(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, DefaultTimeout: 7 * time.Second, MaxTimeout: 30 * time.Second})
	if d := s.jobTimeout(&api.CompileRequest{}); d != 7*time.Second {
		t.Errorf("default timeout = %v", d)
	}
	if d := s.jobTimeout(&api.CompileRequest{TimeoutMs: 1000}); d != time.Second {
		t.Errorf("requested timeout = %v", d)
	}
	if d := s.jobTimeout(&api.CompileRequest{TimeoutMs: int64(time.Hour / time.Millisecond)}); d != 30*time.Second {
		t.Errorf("clamped timeout = %v", d)
	}
}

// TestJobWorkersClamp: the client's intra-job pool width is clamped to
// the configured maximum, like deadlines — no client-controlled
// resource amplification.
func TestJobWorkersClamp(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxJobWorkers: 4})
	if n := s.jobWorkers(&api.CompileRequest{}); n != 0 {
		t.Errorf("default workers = %d, want 0 (pipeline default)", n)
	}
	if n := s.jobWorkers(&api.CompileRequest{Workers: 3}); n != 3 {
		t.Errorf("requested workers = %d, want 3", n)
	}
	if n := s.jobWorkers(&api.CompileRequest{Workers: 10000}); n != 4 {
		t.Errorf("clamped workers = %d, want 4", n)
	}
}

// TestFailureAtDeadlineIsFailure: a genuine compilation failure that
// returns only after the job deadline expired is classified from its own
// error chain — a 422 failure, not a 504 timeout.
func TestFailureAtDeadlineIsFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.compileFn = func(ctx context.Context, j *Job) (*api.Result, error) {
		<-ctx.Done() // let the deadline fire first
		return nil, errors.New("fidelity below target at max duration")
	}
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync", TimeoutMs: 5})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("failure at deadline: HTTP %d (%+v), want 422", code, out.JobStatus)
	}
	if out.State != api.StateFailed || out.TimedOut || out.Canceled {
		t.Fatalf("status = %+v, want plain failure", out.JobStatus)
	}
}

// TestMetricsEndpoint: both formats serve, and preregistered names are
// present so the schema is stable from the first scrape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"server.requests", "grape.db_hits", "pulse.db_dedups", "engine.completed"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from /metrics", name)
		}
	}
	for _, name := range []string{"server.queue_len", "engine.active_workers"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from /metrics", name)
		}
	}

	resp2, err := http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "server.requests") {
		t.Error("text metrics missing server.requests")
	}
}

// TestPprofGated: the unauthenticated profiling endpoints are off the
// public mux by default and mount only with EnablePprof.
func TestPprofGated(t *testing.T) {
	get := func(ts *httptest.Server) int {
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	_, off := newTestServer(t, Config{Workers: 1})
	if code := get(off); code != http.StatusNotFound {
		t.Fatalf("pprof on default mux: HTTP %d, want 404", code)
	}
	_, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	if code := get(on); code != http.StatusOK {
		t.Fatalf("pprof with EnablePprof: HTTP %d, want 200", code)
	}
}
