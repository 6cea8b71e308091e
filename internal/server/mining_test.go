package server

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/miner"
	"paqoc/internal/pulse"
)

// patternCircuit carries the same 2-gate pattern twice, so both the
// per-request APA pass (MinSupport 2 within one circuit) and the miner's
// cross-request table surface it.
const patternCircuit = "qubits 2\ncx 0 1\ncx 1 0\ncx 0 1\ncx 1 0\n"

// TestE2EMiningTwoPassReplay is the offline-mining payoff test: replaying
// yesterday's traffic (pass one, cold) trains the miner; after one idle
// mining run, the same traffic (pass two) hits pre-generated pulses —
// miner.pregen_hits goes positive and pass two pays strictly fewer GRAPE
// cold starts than pass one.
func TestE2EMiningTwoPassReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2, Backend: "xy-grid-1x2",
		MineInterval:   time.Hour, // driven manually via RunOnce
		MineMinSupport: 2, MineBudget: 8,
	})
	if s.Miner() == nil {
		t.Fatal("MineInterval > 0 did not enable the miner")
	}
	req := api.CompileRequest{Circuit: patternCircuit, Grape: true, APA: true, Mode: "sync", TimeoutMs: 120_000}

	before := metricsSnapshot(t, ts.URL)
	for i := 0; i < 2; i++ {
		if code, out := postCompile(t, ts, req); code != http.StatusOK {
			t.Fatalf("pass one request %d: HTTP %d: %+v", i, code, out.JobStatus)
		}
	}
	afterPass1 := metricsSnapshot(t, ts.URL)
	pass1Cold := afterPass1["grape.generated"] - before["grape.generated"]
	if pass1Cold == 0 {
		t.Fatal("pass one paid no GRAPE cold starts — nothing for the miner to save")
	}

	// One idle mining run: the sync jobs are done, so the queue is idle and
	// the compile-path observations fold and pre-generate.
	s.Miner().RunOnce(context.Background())
	afterMine := metricsSnapshot(t, ts.URL)
	if afterMine["miner.pregenerated"] == 0 {
		t.Fatal("idle run pre-generated nothing despite a frequent pattern")
	}
	if afterMine["miner.idle_runs"] == 0 {
		t.Error("miner.idle_runs stayed 0")
	}

	for i := 0; i < 2; i++ {
		if code, out := postCompile(t, ts, req); code != http.StatusOK {
			t.Fatalf("pass two request %d: HTTP %d: %+v", i, code, out.JobStatus)
		}
	}
	afterPass2 := metricsSnapshot(t, ts.URL)
	pass2Cold := afterPass2["grape.generated"] - afterMine["grape.generated"]
	if pass2Cold >= pass1Cold {
		t.Errorf("pass two cold starts = %d, want strictly fewer than pass one's %d", pass2Cold, pass1Cold)
	}

	// Reconcile pre-generation hits (Status does it inline) and confirm the
	// replay traffic used the pre-generated entries.
	st := s.Miner().Status()
	if st.PregenHits == 0 {
		t.Errorf("miner.pregen_hits = 0 after replaying the mined traffic; status = %+v", st)
	}
	if st.CorpusCircuits == 0 || st.PatternsTracked == 0 {
		t.Errorf("status reports empty corpus/patterns after 4 requests: %+v", st)
	}
}

// TestE2EMiningStatusEndpoint: the status resource serves the wire type
// when mining is enabled and the standard 404 envelope when not.
func TestE2EMiningStatusEndpoint(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/v1/mining/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled miner: HTTP %d, want 404", resp.StatusCode)
	}
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != api.CodeNotFound {
		t.Fatalf("disabled miner envelope = %+v (err %v), want code %q", env, err, api.CodeNotFound)
	}

	_, on := newTestServer(t, Config{Workers: 1, MineInterval: time.Hour})
	resp2, err := http.Get(on.URL + "/v1/mining/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("enabled miner: HTTP %d, want 200", resp2.StatusCode)
	}
	var st api.MiningStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.IntervalMs != time.Hour.Milliseconds() {
		t.Errorf("status = %+v", st)
	}
}

// TestCompileMinSupportValidation pins the silent-clamp fix at the HTTP
// surface: a negative min_support is 400 invalid_argument, not quietly
// rewritten to the default.
func TestCompileMinSupportValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, raw := postCompileRaw(t, ts, api.CompileRequest{Circuit: tinyCircuit, MinSupport: -1, Mode: "sync"})
	if code != http.StatusBadRequest {
		t.Fatalf("negative min_support: HTTP %d, want 400\n%s", code, raw)
	}
	if env := errorEnvelope(t, raw); env.Code != api.CodeInvalidArgument {
		t.Errorf("error code = %q, want %q", env.Code, api.CodeInvalidArgument)
	}

	// A positive override is accepted and compiles.
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, MinSupport: 3, Mode: "sync"})
	if code != http.StatusOK || out.State != api.StateDone {
		t.Fatalf("min_support 3: HTTP %d, %+v", code, out.JobStatus)
	}
}

// TestE2EShutdownDuringPregen: draining the server mid-pre-generation
// cancels the in-flight offline optimization promptly and still persists a
// valid pulse-database snapshot.
func TestE2EShutdownDuringPregen(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "pulses.db")
	cfg := Config{
		Workers: 2, Backend: "xy-grid-1x2", DBPath: dbPath, Logger: quiet,
		MineInterval: 10 * time.Millisecond, MineMinSupport: 2,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	// The miner's generator hangs until its context is cancelled —
	// simulating a long GRAPE run caught by the drain.
	s.Miner().SetGeneratorFactory(func(b miner.Backend) pulse.Generator {
		return hangingGen{started: started}
	})
	s.Start()
	ts := newHTTPServer(t, s)

	code, out := postCompile(t, ts, api.CompileRequest{Circuit: patternCircuit, Grape: true, Mode: "sync", TimeoutMs: 120_000})
	if code != http.StatusOK {
		t.Fatalf("compile: HTTP %d: %+v", code, out.JobStatus)
	}
	entries := out.Result.DBEntries
	if entries == 0 {
		t.Fatal("compile stored nothing in the DB")
	}

	select {
	case <-started: // the mining loop entered pre-generation
	case <-time.After(10 * time.Second):
		t.Fatal("miner never started pre-generating")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownStart := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during pre-generation: %v", err)
	}
	if d := time.Since(shutdownStart); d > 20*time.Second {
		t.Fatalf("drain took %v: pre-generation not cancelled promptly", d)
	}

	re, ok, err := pulse.LoadFile(dbPath, s.profile.Fingerprint())
	if err != nil || !ok {
		t.Fatalf("reloading persisted DB after mid-pregen drain: ok=%v err=%v", ok, err)
	}
	if re.Len() != entries {
		t.Fatalf("persisted DB holds %d entries, want %d", re.Len(), entries)
	}
	// The cancelled pre-generation must not have been recorded as done.
	if got := s.reg.Counter("miner.pregenerated").Value(); got != 0 {
		t.Errorf("miner.pregenerated = %d after a cancelled-only run", got)
	}
}

// hangingGen blocks until its context is cancelled.
type hangingGen struct{ started chan struct{} }

func (h hangingGen) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fid float64) (*pulse.Generated, error) {
	select {
	case h.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}
