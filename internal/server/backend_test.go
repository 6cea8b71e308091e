package server

import (
	"paqoc/internal/api"

	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"paqoc/internal/device"
)

// TestBackendUnknownRejected: a request naming a backend outside the
// device registry (and not parseable as a dynamic name) is a 400, and no
// job is created for it.
func TestBackendUnknownRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Backend: "ion-trap-9000", Mode: "sync"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown backend: HTTP %d (%+v), want 400", code, out.JobStatus)
	}
}

// TestBackendPerJobSelection: a job compiled against a non-default
// backend routes on that backend's topology and reports the backend name
// in its status.
func TestBackendPerJobSelection(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if s.profile.Name != device.DefaultName {
		t.Fatalf("default backend = %q, want %q", s.profile.Name, device.DefaultName)
	}

	// Default backend: status carries the server's profile name.
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync"})
	if code != http.StatusOK || out.State != api.StateDone {
		t.Fatalf("default compile: HTTP %d: %+v", code, out.JobStatus)
	}
	if out.Backend != device.DefaultName {
		t.Errorf("default job backend = %q, want %q", out.Backend, device.DefaultName)
	}

	// Explicit non-default backend, including a dynamic name.
	for _, backend := range []string{"linear-chain", "xy-grid-2x3"} {
		code, out := postCompile(t, ts, api.CompileRequest{Circuit: "qubits 3\nh 0\ncx 0 2\ncx 1 2\n", Backend: backend, Mode: "sync"})
		if code != http.StatusOK || out.State != api.StateDone {
			t.Fatalf("backend %s: HTTP %d: %+v", backend, code, out.JobStatus)
		}
		if out.Backend != backend {
			t.Errorf("job backend = %q, want %q", out.Backend, backend)
		}
		if out.Result == nil || out.Result.Blocks < 1 {
			t.Errorf("backend %s: implausible result %+v", backend, out.Result)
		}
	}
}

// TestBackendDBIsolation: jobs on different devices warm different pulse
// databases — a GRAPE schedule generated under one device must not be
// served to another. linear-chain-3 differs from xy-grid-1x2 in its
// qubit count, so the two fingerprints differ.
func TestBackendDBIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Backend: "xy-grid-1x2"})
	req := api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "sync", TimeoutMs: 120_000}

	code, out := postCompile(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("default backend compile: HTTP %d: %+v", code, out.JobStatus)
	}
	if s.db.Len() == 0 {
		t.Fatal("default backend DB stayed cold")
	}

	req.Backend = "linear-chain-3"
	code, out = postCompile(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("linear-chain-3 compile: HTTP %d: %+v", code, out.JobStatus)
	}
	prof, err := device.Lookup("linear-chain-3")
	if err != nil {
		t.Fatal(err)
	}
	other := s.dbFor(prof)
	if other == s.db {
		t.Fatal("non-default backend shares the default DB")
	}
	if other.Len() == 0 {
		t.Fatal("non-default backend DB stayed cold after a GRAPE compile")
	}
	if got, want := other.Fingerprint(), prof.Fingerprint(); got != want {
		t.Fatalf("backend DB fingerprint = %q, want %q", got, want)
	}
}

// TestBackendAliasesShareOneStore: profile names that describe the same
// device share one pulse store. The default backend's alias gets the
// default (persisted) store, replication RPCs for that fingerprint
// resolve to it, and two aliases of another device get the same store.
func TestBackendAliasesShareOneStore(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, Backend: "linear-chain"})
	lookup := func(name string) *device.Profile {
		t.Helper()
		prof, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	alias := lookup("linear-chain-16")
	if s.dbFor(alias) != s.DB() {
		t.Error("linear-chain-16 got a store of its own, not the default linear-chain one")
	}
	if db, ok := s.dbByFingerprint(alias.Fingerprint()); !ok || db != s.DB() {
		t.Error("the default device's fingerprint does not resolve to the default store")
	}
	if s.dbFor(lookup("heavy-hex")) != s.dbFor(lookup("heavy-hex-4")) {
		t.Error("heavy-hex and heavy-hex-4 got separate stores")
	}
}

// TestBackendSnapshotRefusedOnMismatch is the acceptance scenario at the
// server boundary: a pulse-DB snapshot persisted under one backend is
// refused when a server configured for a different backend starts on it.
func TestBackendSnapshotRefusedOnMismatch(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "pulses.db")
	cfg := Config{Workers: 2, Backend: "xy-grid-1x2", DBPath: dbPath, Logger: quiet}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := newHTTPServer(t, s)
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "sync", TimeoutMs: 120_000})
	if code != http.StatusOK || out.Result.DBEntries == 0 {
		t.Fatalf("warming compile: HTTP %d: %+v", code, out.JobStatus)
	}
	if err := s.saveDB(); err != nil {
		t.Fatal(err)
	}

	// Same path, different backend: startup must refuse the snapshot.
	_, err = New(Config{Workers: 2, Backend: "heavy-hex", DBPath: dbPath, Logger: quiet})
	if err == nil {
		t.Fatal("server started on a snapshot calibrated for another backend")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("error does not mention the fingerprint mismatch: %v", err)
	}

	// The matching backend still starts warm from it.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.DB().Len() == 0 {
		t.Fatal("matching backend did not start warm")
	}
}
