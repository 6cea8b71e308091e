package pulse

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paqoc/internal/quantum"
)

func TestFingerprintNamespacesKeys(t *testing.T) {
	a, b := NewDB(), NewDB()
	a.SetFingerprint("backend-a")
	b.SetFingerprint("backend-b")
	if a.Fingerprint() != "backend-a" {
		t.Fatalf("fingerprint = %q", a.Fingerprint())
	}

	cx, err := quantum.GateUnitary("cx", nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &Generated{Latency: 75, Fidelity: 0.999, Error: 0.001}
	a.Store(cx, g)

	if _, _, ok := a.Lookup(cx); !ok {
		t.Error("same-backend lookup must hit")
	}
	if _, _, ok := b.Lookup(cx); ok {
		t.Error("cross-backend DB must not share entries")
	}
	// The namespaced and un-namespaced views of the same unitary are
	// distinct keys too.
	plain := NewDB()
	plain.Store(cx, g)
	ea, _ := a.Peek(cx)
	ep, _ := plain.Peek(cx)
	if ea.Key == ep.Key || ep.Key != CanonicalKey(cx) {
		t.Errorf("fingerprinted key %q must differ from the bare canonical key %q", ea.Key, ep.Key)
	}
}

func TestSetFingerprintRejectsNonEmptyDB(t *testing.T) {
	db := NewDB()
	db.Store(rotation(0.2), &Generated{Latency: 10, Fidelity: 0.999, Error: 0.001})
	defer func() {
		if recover() == nil {
			t.Error("SetFingerprint on a populated DB should panic")
		}
	}()
	db.SetFingerprint("late")
}

// The acceptance scenario: a snapshot taken while serving one backend is
// refused when loaded for another, and accepted for the same one.
func TestLoadRefusesCrossBackendSnapshot(t *testing.T) {
	db := NewDB()
	db.SetFingerprint("backend-a")
	db.Store(rotation(0.9), &Generated{Schedule: testSchedule(3.0), Latency: 20, Fidelity: 0.9995, Error: 0.0005})

	var buf bytes.Buffer
	if _, err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	if _, err := LoadDB(bytes.NewReader(snap), "backend-b"); err == nil {
		t.Fatal("cross-backend load must be refused")
	} else if !strings.Contains(err.Error(), "backend-a") || !strings.Contains(err.Error(), "backend-b") {
		t.Errorf("error should name both fingerprints: %v", err)
	}

	// An un-namespaced store is a backend too: it refuses a fingerprinted
	// snapshot rather than adopting its fingerprint.
	if _, err := LoadDB(bytes.NewReader(snap), ""); err == nil {
		t.Error("a fingerprinted snapshot must not load into an un-namespaced DB")
	}

	re, err := LoadDB(bytes.NewReader(snap), "backend-a")
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() != "backend-a" || re.Len() != 1 {
		t.Errorf("same-backend reload: fp=%q len=%d", re.Fingerprint(), re.Len())
	}
	if _, _, ok := re.Lookup(rotation(0.9)); !ok {
		t.Error("reloaded entry must resolve under the same fingerprint")
	}
}

// Pre-fingerprint snapshots (no fingerprint field) are adopted under the
// serving backend instead of being refused — they predate namespacing.
func TestLoadAdoptsLegacySnapshot(t *testing.T) {
	legacy := NewDB()
	legacy.Store(rotation(0.4), &Generated{Latency: 15, Fidelity: 0.999, Error: 0.001})
	var buf bytes.Buffer
	if _, err := legacy.Save(&buf); err != nil {
		t.Fatal(err)
	}

	re, err := LoadDB(&buf, "backend-c")
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() != "backend-c" {
		t.Errorf("fingerprint = %q, want adopted backend-c", re.Fingerprint())
	}
	if _, _, ok := re.Lookup(rotation(0.4)); !ok {
		t.Error("legacy entry must resolve under the adopted fingerprint")
	}
}

func TestLoadFileForMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	db, ok, err := LoadFile(path, "backend-d")
	if err != nil || ok {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
	if db.Fingerprint() != "backend-d" {
		t.Errorf("cold-start DB must carry the serving fingerprint, got %q", db.Fingerprint())
	}
}

func TestLoadFileForRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db := NewDB()
	db.SetFingerprint("backend-e")
	db.Store(rotation(0.6), &Generated{Latency: 11, Fidelity: 0.999, Error: 0.001})
	if _, err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path, "backend-f"); err == nil {
		t.Error("cross-backend LoadFile must fail")
	}
	re, ok, err := LoadFile(path, "backend-e")
	if err != nil || !ok || re.Len() != 1 {
		t.Fatalf("same-backend LoadFile: ok=%v len=%d err=%v", ok, re.Len(), err)
	}
}

// TestDoStoresUnderNamespacedKey checks that a fingerprinted store files a
// generated pulse under the namespaced key Do looked up, so the next Do
// for the same unitary, or its permuted twin, is a hit and runs no
// generator.
func TestDoStoresUnderNamespacedKey(t *testing.T) {
	db := NewDB()
	db.SetFingerprint("backend-a")
	runs := 0
	gen := func() (*Generated, error) {
		runs++
		return &Generated{Latency: 75, Fidelity: 0.999, Error: 0.001}, nil
	}
	cx := quantum.MatCX.Clone()
	if _, _, oc, err := db.Do(cx, gen); err != nil || oc != OutcomeGenerated {
		t.Fatalf("first Do: outcome %v, err %v", oc, err)
	}
	if e, ok := db.Peek(cx); !ok || e.Key != NamespacedKey("backend-a", CanonicalKey(cx)) {
		t.Fatalf("generated entry not under the namespaced key (found %v)", ok)
	}
	if _, _, oc, _ := db.Do(cx, gen); oc != OutcomeHit {
		t.Errorf("second Do: outcome %v, want a hit", oc)
	}
	rev := quantum.PermuteQubits(cx, []int{1, 0})
	if _, perm, oc, _ := db.Do(rev, gen); oc != OutcomePermuted || perm == nil {
		t.Errorf("permuted Do: outcome %v, perm %v, want a permuted hit", oc, perm)
	}
	if runs != 1 || db.Len() != 1 {
		t.Errorf("generator ran %d times for %d entries, want once for one", runs, db.Len())
	}
}
