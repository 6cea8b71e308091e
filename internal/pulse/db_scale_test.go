package pulse

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paqoc/internal/linalg"
	"paqoc/internal/obs"
)

// phaseUnitary builds a diagonal unitary with the given phases — cheap to
// generate in bulk, distinct canonical keys, well-spread pairwise
// distances (the same family a warm pulse store accumulates from RZ-like
// customized gates).
func phaseUnitary(phases ...float64) *linalg.Matrix {
	u := linalg.New(len(phases), len(phases))
	for i, p := range phases {
		u.Data[i*len(phases)+i] = complex(math.Cos(p), math.Sin(p))
	}
	return u
}

func randomPhaseUnitary(dim int, rng *rand.Rand) *linalg.Matrix {
	phases := make([]float64, dim)
	for i := range phases {
		phases[i] = rng.Float64() * 2 * math.Pi
	}
	return phaseUnitary(phases...)
}

// blockingWriter blocks inside its first Write until released — the slow
// io.Writer seam for the snapshot-stall regression test.
type blockingWriter struct {
	entered chan struct{} // closed when the first Write begins
	release chan struct{} // the Write returns once this closes
	once    sync.Once
	buf     bytes.Buffer
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.buf.Write(p)
}

// TestStoreNotBlockedBySlowSave is the snapshot-stall regression test: a
// Save stuck in disk I/O (here: a Write that never returns until
// released) must not block concurrent Store calls. The seed held the
// RWMutex read lock across encoding and writing, so any Store issued
// during a slow snapshot queued behind it — under a periodic snapshotter
// that stalled the whole compile fleet.
func TestStoreNotBlockedBySlowSave(t *testing.T) {
	db := NewDB()
	for i := 0; i < 32; i++ {
		db.Store(rotation(0.01+float64(i)*0.1), &Generated{Latency: float64(i)})
	}

	w := newBlockingWriter()
	saveDone := make(chan error, 1)
	go func() { saveDone <- db.Save(w) }()

	// Wait until Save is provably inside the blocked Write: the snapshot
	// has been taken and every lock released.
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Save never reached its Write")
	}

	stored := make(chan struct{})
	go func() {
		db.Store(rotation(9.9), &Generated{Latency: 999})
		close(stored)
	}()
	select {
	case <-stored:
		// Store completed while the snapshot write is still blocked.
	case <-time.After(5 * time.Second):
		t.Fatal("Store blocked behind an in-progress Save")
	}

	close(w.release)
	if err := <-saveDone; err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The snapshot predates the late Store and must not contain it.
	re, err := LoadDB(&w.buf)
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
	}
	if re.Len() != 32 {
		t.Errorf("snapshot holds %d entries, want the 32 preceding Save", re.Len())
	}
}

// TestSaveDeterministic: two saves of one DB are byte-identical, and two
// DBs holding the same entries stored in different orders snapshot to the
// same bytes — entries are sorted by canonical key before encoding, so
// map iteration order never leaks into the file.
func TestSaveDeterministic(t *testing.T) {
	gens := make([]*Generated, 8)
	us := make([]*linalg.Matrix, 8)
	for i := range us {
		us[i] = rotation(0.2 + 0.31*float64(i))
		gens[i] = &Generated{Latency: float64(10 + i), Fidelity: 0.999, Error: 0.001, Schedule: testSchedule(float64(i))}
	}

	a, b := NewDB(), NewDB()
	for i := range us {
		a.Store(us[i], gens[i])
	}
	for i := len(us) - 1; i >= 0; i-- { // reverse insertion order
		b.Store(us[i], gens[i])
	}

	var a1, a2, b1 bytes.Buffer
	if err := a.Save(&a1); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(&a2); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1.Bytes(), a2.Bytes()) {
		t.Error("two saves of one DB differ byte-for-byte")
	}
	if !bytes.Equal(a1.Bytes(), b1.Bytes()) {
		t.Error("same population, different insertion order: snapshots differ")
	}
}

// TestSaveSkipsNonFinite: a NaN/Inf entry (a diverged GRAPE run) must not
// abort the snapshot — it is skipped, counted, and reported, and the
// remaining entries land on disk.
func TestSaveSkipsNonFinite(t *testing.T) {
	db := NewDB()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	db.Store(rotation(0.3), &Generated{Latency: 12, Fidelity: 0.999, Error: 0.001})
	db.Store(rotation(0.6), &Generated{Latency: math.NaN(), Fidelity: 0.999, Error: 0.001})
	db.Store(rotation(0.9), &Generated{Latency: 14, Fidelity: math.Inf(1), Error: 0.001})
	bad := testSchedule(1.0)
	bad.Amps[0][2] = math.NaN()
	db.Store(rotation(1.2), &Generated{Latency: 15, Fidelity: 0.999, Error: 0.001, Schedule: bad})

	var buf bytes.Buffer
	rep, err := db.SaveWithReport(&buf)
	if err != nil {
		t.Fatalf("SaveWithReport: %v (the seed failed here with UnsupportedValueError)", err)
	}
	if rep.SkippedNonFinite != 3 || rep.Entries != 1 {
		t.Errorf("report = %+v, want 3 skipped / 1 written", rep)
	}
	if n := reg.Counter("pulse.save_skipped_nonfinite").Value(); n != 3 {
		t.Errorf("pulse.save_skipped_nonfinite = %d, want 3", n)
	}
	re, err := LoadDB(&buf)
	if err != nil {
		t.Fatalf("LoadDB of the filtered snapshot: %v", err)
	}
	if re.Len() != 1 {
		t.Errorf("reloaded %d entries, want 1", re.Len())
	}
	if _, _, ok := re.Lookup(rotation(0.3)); !ok {
		t.Error("the finite entry did not survive the snapshot")
	}
}

// TestLoadDBRejectsNonUnitary: arbitrary matrices must not enter the warm
// store — a corrupt or hand-edited file fails fast at load.
func TestLoadDBRejectsNonUnitary(t *testing.T) {
	const nonUnitary = `{"version":1,"entries":[{"dim":2,` +
		`"unitary":[[2,0],[0,0],[0,0],[2,0]],` +
		`"latency_dt":10,"fidelity":0.999,"error":0.001}]}`
	if _, err := LoadDB(bytes.NewReader([]byte(nonUnitary))); err == nil {
		t.Fatal("LoadDB accepted a matrix with singular values 2")
	}

	const shear = `{"version":1,"entries":[{"dim":2,` +
		`"unitary":[[1,0],[0.01,0],[0,0],[1,0]],` +
		`"latency_dt":10,"fidelity":0.999,"error":0.001}]}`
	if _, err := LoadDB(bytes.NewReader([]byte(shear))); err == nil {
		t.Fatal("LoadDB accepted a shear (non-unitary within tolerance)")
	}

	// A healthy unitary still loads.
	var buf bytes.Buffer
	db := NewDB()
	db.Store(rotation(0.4), &Generated{Latency: 11, Fidelity: 0.999, Error: 0.001})
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDB(&buf); err != nil {
		t.Fatalf("round trip rejected a valid unitary: %v", err)
	}
}

// TestProtectedRoundTrip: the eviction-protection flag survives
// persistence, so APA-basis entries stay protected after a restart.
func TestProtectedRoundTrip(t *testing.T) {
	db := NewDB()
	u := rotation(0.7)
	db.Store(u, &Generated{Latency: 10, Fidelity: 0.999, Error: 0.001})
	db.Protect(u)
	db.Store(rotation(1.4), &Generated{Latency: 11, Fidelity: 0.999, Error: 0.001})

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := re.get(CanonicalKey(u))
	if e == nil || !e.Protected() {
		t.Error("protection flag lost in the save/load round trip")
	}
	if e2 := re.get(CanonicalKey(rotation(1.4))); e2 == nil || e2.Protected() {
		t.Error("unprotected entry came back protected")
	}
}

// TestEvictionBoundsAndRanking: the capacity bound holds, evictions are
// counted, and the ranking protects APA-basis and high-use entries while
// cold unprotected ones go first.
func TestEvictionBoundsAndRanking(t *testing.T) {
	db := NewDB()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	const total, max = 64, 16
	us := make([]*linalg.Matrix, total)
	for i := range us {
		us[i] = rotation(0.01 + 0.09*float64(i))
		db.Store(us[i], &Generated{Latency: float64(i)})
	}
	// Protect 4, heat up 4 others with lookups.
	for i := 0; i < 4; i++ {
		db.Protect(us[i])
	}
	for i := 4; i < 8; i++ {
		for k := 0; k < 10; k++ {
			db.Lookup(us[i])
		}
	}

	db.SetMaxEntries(max)
	if n := db.Len(); n > max {
		t.Fatalf("Len = %d after SetMaxEntries(%d)", n, max)
	}
	if db.Evictions() == 0 {
		t.Error("no evictions recorded")
	}
	if reg.Counter("pulse.evictions").Value() != db.Evictions() {
		t.Errorf("pulse.evictions counter %d != Evictions() %d",
			reg.Counter("pulse.evictions").Value(), db.Evictions())
	}
	for i := 0; i < 8; i++ {
		if db.get(CanonicalKey(us[i])) == nil {
			t.Errorf("ranked eviction dropped protected/hot entry %d", i)
		}
	}

	// The bound keeps holding under continued stores.
	for i := 0; i < 3*max; i++ {
		db.Store(rotation(10+0.05*float64(i)), &Generated{Latency: 1})
	}
	if n := db.Len(); n > max {
		t.Errorf("Len = %d under continued stores, want ≤ %d", n, max)
	}
	// Protected entries outlive everything.
	for i := 0; i < 4; i++ {
		if db.get(CanonicalKey(us[i])) == nil {
			t.Errorf("protected entry %d evicted while unprotected ones existed", i)
		}
	}
}

// TestEvictionEvictsProtectedLast: when the bound is tighter than the
// protected population, protected entries are evicted too — capacity is a
// hard bound, protection only orders the ranking.
func TestEvictionEvictsProtectedLast(t *testing.T) {
	db := NewDB()
	for i := 0; i < 8; i++ {
		u := rotation(0.1 + 0.2*float64(i))
		db.Store(u, &Generated{Latency: float64(i)})
		db.Protect(u)
	}
	db.SetMaxEntries(4)
	if n := db.Len(); n > 4 {
		t.Errorf("Len = %d with every entry protected, want ≤ 4", n)
	}
}

// TestNearestMatchesLinearScan is the sharded-vs-seed equivalence
// property test: on randomized populations and probes, the indexed
// Nearest must return the identical entry — including the canonical-key
// tie-break — as the retained seed-era linear scan, across dimensions and
// cutoffs.
func TestNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dim := []int{2, 4}[trial%2]
		db := NewDB()
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			db.Store(randomPhaseUnitary(dim, rng), &Generated{Latency: float64(i)})
		}
		for probe := 0; probe < 25; probe++ {
			u := randomPhaseUnitary(dim, rng)
			maxDist := []float64{0.3, 0.8, 1.5, 10}[probe%4]
			eIdx, dIdx, okIdx := db.Nearest(u, maxDist)
			eLin, dLin, okLin := db.NearestLinear(u, maxDist)
			if okIdx != okLin {
				t.Fatalf("trial %d probe %d: indexed ok=%v, linear ok=%v (maxDist=%g)",
					trial, probe, okIdx, okLin, maxDist)
			}
			if !okIdx {
				continue
			}
			if eIdx.Key != eLin.Key {
				t.Fatalf("trial %d probe %d: indexed chose %q…, linear chose %q… (d=%g vs %g)",
					trial, probe, eIdx.Key[:16], eLin.Key[:16], dIdx, dLin)
			}
			if math.Abs(dIdx-dLin) > 1e-9 {
				t.Fatalf("trial %d probe %d: distance %g vs %g", trial, probe, dIdx, dLin)
			}
		}
	}
}

// TestNearestTieEquivalence pins the exact-tie case against the linear
// scan: ±θ rotations are equidistant from the identity, and both paths
// must resolve the tie to the smaller canonical key.
func TestNearestTieEquivalence(t *testing.T) {
	db := NewDB()
	db.Store(rotation(0.4), &Generated{Latency: 1})
	db.Store(rotation(-0.4), &Generated{Latency: 2})
	probe := linalg.Identity(2)
	eIdx, _, okIdx := db.Nearest(probe, 10)
	eLin, _, okLin := db.NearestLinear(probe, 10)
	if !okIdx || !okLin {
		t.Fatal("tie probe missed")
	}
	if eIdx.Key != eLin.Key {
		t.Errorf("tie resolved differently: indexed %q…, linear %q…", eIdx.Key[:16], eLin.Key[:16])
	}
}

// TestNearestPruneCounters: with a metrics registry attached, every
// candidate is accounted as either scanned or pruned, and at scale most
// are pruned.
func TestNearestPruneCounters(t *testing.T) {
	db := NewDB()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	rng := rand.New(rand.NewSource(11))
	const n = 2000
	for i := 0; i < n; i++ {
		db.Store(randomPhaseUnitary(4, rng), &Generated{Latency: float64(i)})
	}
	if _, _, ok := db.Nearest(randomPhaseUnitary(4, rng), 0.8); !ok {
		t.Log("no entry under cutoff (fine; counters still accumulate)")
	}
	scanned := reg.Counter("pulse.nearest_scanned").Value()
	pruned := reg.Counter("pulse.nearest_pruned").Value()
	if scanned+pruned != n {
		t.Errorf("scanned %d + pruned %d != %d candidates", scanned, pruned, n)
	}
	if pruned == 0 {
		t.Errorf("no candidates pruned at %d entries (scanned=%d)", n, scanned)
	}
}

// TestDBConcurrentHammerSharded is the -race hammer for the sharded
// store: concurrent Do (with dedup), Store, Nearest, Lookup, and SaveFile
// against one DB with an active capacity bound.
func TestDBConcurrentHammerSharded(t *testing.T) {
	db := NewDB()
	db.SetMaxEntries(64)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	path := filepath.Join(t.TempDir(), "pulses.db")

	unitaries := make([]*linalg.Matrix, 96)
	for i := range unitaries {
		unitaries[i] = rotation(0.02 + 0.07*float64(i))
	}
	var generated atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				u := unitaries[(w*31+i)%len(unitaries)]
				switch i % 5 {
				case 0:
					_, _, _, err := db.Do(u, func() (*Generated, error) {
						generated.Add(1)
						return &Generated{Latency: float64(i)}, nil
					})
					if err != nil {
						t.Error(err)
					}
				case 1:
					db.Store(u, &Generated{Latency: float64(i)})
				case 2:
					db.Nearest(u, 0.5)
				case 3:
					db.Lookup(u)
				case 4:
					if err := db.SaveFile(path); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := db.Len(); n > 64 {
		t.Errorf("capacity bound violated under concurrency: Len = %d", n)
	}
	// The file left behind must be loadable and within the bound.
	re, ok, err := LoadFile(path)
	if err != nil || !ok {
		t.Fatalf("LoadFile after hammer: ok=%v err=%v", ok, err)
	}
	if re.Len() == 0 {
		t.Error("hammer snapshot is empty")
	}
}

// NearestLinear is the seed-era reference: an unpruned linear scan with
// linalg.GlobalPhaseDistance over every same-dimension entry, the oracle
// for the Nearest equivalence property test. Its figures as the pulsedb
// benchmark's baseline are on record in BENCH_005.json.
func (db *DB) NearestLinear(u *linalg.Matrix, maxDist float64) (*Entry, float64, bool) {
	v, ok := db.dims.Load(u.Rows)
	if !ok {
		return nil, 0, false
	}
	ix := v.(*dimIndex)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var best *Entry
	bestDist := maxDist
	for _, it := range ix.items {
		d := linalg.GlobalPhaseDistance(u, it.e.U)
		switch {
		case d < bestDist:
			best, bestDist = it.e, d
		case d == bestDist && best != nil && it.e.Key < best.Key:
			best = it.e
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, bestDist, true
}
