package pulse

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paqoc/internal/quantum"
)

// testSchedule builds a distinctive multi-channel schedule whose samples
// exercise the exact float64 round-trip (irrational values, negatives,
// denormals are all fair game for the JSON encoder).
func testSchedule(seed float64) *Schedule {
	s := &Schedule{Channels: []string{"d0.x", "d0.y"}, SliceDt: 4}
	for k := range s.Channels {
		amps := make([]float64, 6)
		for j := range amps {
			amps[j] = math.Sin(seed + float64(k) + 0.1*float64(j))
		}
		s.Amps = append(s.Amps, amps)
	}
	return s
}

// TestSaveLoadRoundTrip persists a database holding 1-, 2-, and 3-qubit
// entries and checks that after reload every entry resolves by exact key,
// the 2-qubit entry also resolves through a permuted-key lookup, and the
// schedule payload survives bit-exactly.
func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()

	u1 := rotation(0.37)
	g1 := &Generated{Schedule: testSchedule(1.0), Latency: 12, Fidelity: 0.9991, Error: 0.0009}
	db.Store(u1, g1)

	cx, err := quantum.GateUnitary("cx", nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := &Generated{Schedule: testSchedule(2.0), Latency: 75, Fidelity: 0.9993, Error: 0.0007}
	db.Store(cx, g2)

	ccx, err := quantum.GateUnitary("ccx", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Analytical entry: no schedule, latency/fidelity only.
	g3 := &Generated{Latency: 230, Fidelity: 0.999, Error: 0.001}
	db.Store(ccx, g3)

	var buf bytes.Buffer
	if _, err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDB(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reloaded Len = %d, want 3", re.Len())
	}

	got1, perm, ok := re.Lookup(u1)
	if !ok || perm != nil {
		t.Fatalf("1q lookup after reload: ok=%v perm=%v", ok, perm)
	}
	if got1.Latency != g1.Latency || got1.Fidelity != g1.Fidelity || got1.Error != g1.Error {
		t.Errorf("1q metadata changed: %+v vs %+v", got1, g1)
	}
	assertSchedulesEqual(t, "1q", g1.Schedule, got1.Schedule)

	got3, perm, ok := re.Lookup(ccx)
	if !ok || perm != nil {
		t.Fatalf("3q lookup after reload: ok=%v perm=%v", ok, perm)
	}
	if got3.Schedule != nil {
		t.Error("3q analytical entry grew a schedule through the round trip")
	}
	if got3.Latency != g3.Latency {
		t.Errorf("3q latency = %v, want %v", got3.Latency, g3.Latency)
	}

	// Permuted lookup: the reversed-wires CX is not stored, but the stored
	// CX under the [1,0] wire permutation matches it (§V-B detection).
	swapped := quantum.PermuteQubits(cx, []int{1, 0})
	got2, perm, ok := re.Lookup(swapped)
	if !ok {
		t.Fatal("permuted CX lookup missed after reload")
	}
	if len(perm) != 2 || perm[0] != 1 || perm[1] != 0 {
		t.Fatalf("permuted CX lookup perm = %v, want [1 0]", perm)
	}
	assertSchedulesEqual(t, "2q", g2.Schedule, got2.Schedule)
}

// assertSchedulesEqual compares amplitudes exactly: persistence must not
// perturb a single bit of the pulse payload.
func assertSchedulesEqual(t *testing.T, label string, want, got *Schedule) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: schedule lost in round trip", label)
	}
	if got.SliceDt != want.SliceDt {
		t.Errorf("%s: SliceDt %v vs %v", label, got.SliceDt, want.SliceDt)
	}
	if len(got.Channels) != len(want.Channels) {
		t.Fatalf("%s: %d channels, want %d", label, len(got.Channels), len(want.Channels))
	}
	for k := range want.Channels {
		if got.Channels[k] != want.Channels[k] {
			t.Errorf("%s: channel %d named %q, want %q", label, k, got.Channels[k], want.Channels[k])
		}
		if len(got.Amps[k]) != len(want.Amps[k]) {
			t.Fatalf("%s: channel %d has %d samples, want %d", label, k, len(got.Amps[k]), len(want.Amps[k]))
		}
		for j := range want.Amps[k] {
			if got.Amps[k][j] != want.Amps[k][j] {
				t.Errorf("%s: channel %d sample %d = %v, want exactly %v",
					label, k, j, got.Amps[k][j], want.Amps[k][j])
			}
		}
	}
}

// TestSaveFileAtomic covers the crash-safe file path: saves land complete,
// re-saves replace the old content, no temp files are left behind, and a
// failed save neither creates the target nor litters the directory.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pulses.db")

	db1 := NewDB()
	db1.Store(rotation(0.1), &Generated{Latency: 10, Fidelity: 0.999})
	if _, err := db1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	re, ok, err := LoadFile(path, "")
	if err != nil || !ok {
		t.Fatalf("LoadFile after first save: ok=%v err=%v", ok, err)
	}
	if re.Len() != 1 {
		t.Fatalf("first save holds %d entries, want 1", re.Len())
	}

	db2 := NewDB()
	db2.Store(rotation(0.1), &Generated{Latency: 10, Fidelity: 0.999})
	db2.Store(rotation(0.2), &Generated{Latency: 11, Fidelity: 0.999})
	if _, err := db2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	re, ok, err = LoadFile(path, "")
	if err != nil || !ok {
		t.Fatalf("LoadFile after overwrite: ok=%v err=%v", ok, err)
	}
	if re.Len() != 2 {
		t.Fatalf("overwrite holds %d entries, want 2", re.Len())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "pulses.db" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory litter after saves: %v", names)
	}

	// A save that cannot complete (missing directory) errors and leaves
	// nothing behind.
	bad := filepath.Join(dir, "no-such-dir", "pulses.db")
	if _, err := db2.SaveFile(bad); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed save created the target: %v", err)
	}
}

// TestLoadFileMissing: a cold start gets an empty database, not an error.
func TestLoadFileMissing(t *testing.T) {
	db, ok, err := LoadFile(filepath.Join(t.TempDir(), "absent.db"), "")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("LoadFile reported ok for a missing file")
	}
	if db == nil || db.Len() != 0 {
		t.Errorf("missing file did not yield an empty database: %v", db)
	}
}
