package pulse

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// rotation returns an RZ-like diagonal unitary — cheap, distinct per angle.
func rotation(theta float64) *linalg.Matrix {
	u := linalg.New(2, 2)
	u.Data[0] = complex(math.Cos(theta/2), -math.Sin(theta/2))
	u.Data[3] = complex(math.Cos(theta/2), math.Sin(theta/2))
	return u
}

// TestPermutationsMemoized: permuted lookups hand out the lookup table's
// own permutation slices rather than building them per call.
func TestPermutationsMemoized(t *testing.T) {
	ccx, err := quantum.GateUnitary("ccx", nil)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	a := db.permutedKeys(ccx, true)
	b := db.permutedKeys(ccx, true)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("3-qubit gate got %d permuted keys, want 5 (identity hoisted)", len(a))
	}
	for i := range a {
		if &a[i].perm[0] != &lookupPerms[3][i][0] || &b[i].perm[0] != &a[i].perm[0] {
			t.Errorf("permutation %v rebuilt instead of taken from the table", a[i].perm)
		}
	}
}

func TestDBConcurrentHammer(t *testing.T) {
	db := NewDB()
	unitaries := make([]*linalg.Matrix, 16)
	for i := range unitaries {
		unitaries[i] = rotation(float64(i) * 0.37)
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := unitaries[(w+i)%len(unitaries)]
				switch i % 4 {
				case 0:
					db.Store(u, &Generated{Latency: float64(i)})
				case 1:
					db.Lookup(u)
				case 2:
					db.Nearest(u, 0.5)
				case 3:
					db.Len()
					db.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if db.Len() != len(unitaries) {
		t.Errorf("Len = %d, want %d", db.Len(), len(unitaries))
	}
}

func TestDoSingleflightOneGeneratorCallPerKey(t *testing.T) {
	db := NewDB()
	u := quantum.MatCX.Clone()
	var calls, waiting atomic.Int64
	release := make(chan struct{})
	const workers = 8
	// Hold the leader inside the generator until every other worker has
	// joined its flight, so the dedup count is deterministic.
	db.onWait = func() {
		if waiting.Add(1) == workers-1 {
			close(release)
		}
	}
	var wg sync.WaitGroup
	results := make([]*Generated, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, _, _, err := db.Do(u, func() (*Generated, error) {
				calls.Add(1)
				<-release
				return &Generated{Latency: 80}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[w] = g
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	for w, g := range results {
		if g == nil || g.Latency != 80 {
			t.Errorf("worker %d got %+v", w, results[w])
		}
	}
	if db.Dedups() != workers-1 {
		t.Errorf("dedups = %d, want %d", db.Dedups(), workers-1)
	}
}

func TestDoPermutedInflightCoalesces(t *testing.T) {
	db := NewDB()
	u := quantum.MatCX.Clone()
	perm := []int{1, 0}
	up := quantum.PermuteQubits(u, perm) // CX with control/target swapped
	if CanonicalKey(u) == CanonicalKey(up) {
		t.Fatal("test needs distinct canonical keys")
	}
	var calls atomic.Int64
	var joinOnce sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	// Hold the leader until the permuted worker has joined its flight.
	db.onWait = func() { joinOnce.Do(func() { close(release) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.Do(u, func() (*Generated, error) {
			calls.Add(1)
			close(started)
			<-release
			return &Generated{Latency: 80}, nil
		})
	}()
	<-started
	wg.Add(1)
	var gotPerm []int
	var outcome Outcome
	go func() {
		defer wg.Done()
		// The permuted worker must join the in-flight generation of u
		// rather than starting its own.
		_, gotPerm, outcome, _ = db.Do(up, func() (*Generated, error) {
			calls.Add(1)
			return &Generated{Latency: 999}, nil
		})
	}()
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1 (permuted dedup)", n)
	}
	if outcome != OutcomeDeduped {
		t.Errorf("outcome = %v, want OutcomeDeduped", outcome)
	}
	if len(gotPerm) == 0 {
		t.Error("permuted dedup lost the permutation")
	}
}

func TestDoLeaderErrorPromotesWaiter(t *testing.T) {
	db := NewDB()
	u := quantum.MatH.Clone()
	var calls atomic.Int64
	var joinOnce sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	// Hold the failing leader until the waiter has joined its flight, so
	// the waiter is guaranteed to observe the error and retry as leader.
	db.onWait = func() { joinOnce.Do(func() { close(release) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := db.Do(u, func() (*Generated, error) {
			calls.Add(1)
			close(started)
			<-release
			return nil, fmt.Errorf("leader failed")
		})
		if err == nil {
			t.Error("leader error lost")
		}
	}()
	<-started
	done := make(chan *Generated)
	go func() {
		g, _, _, err := db.Do(u, func() (*Generated, error) {
			calls.Add(1)
			return &Generated{Latency: 24}, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- g
	}()
	wg.Wait()
	if g := <-done; g == nil || g.Latency != 24 {
		t.Errorf("promoted waiter got %+v", g)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("calls = %d, want 2 (leader errored, waiter retried)", n)
	}
}

func TestDoGeneratorPanicReleasesWaiters(t *testing.T) {
	db := NewDB()
	u := quantum.MatX.Clone()
	_, _, _, err := db.Do(u, func() (*Generated, error) { panic("boom") })
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	// The flight must have been cleaned up: a retry succeeds.
	g, _, oc, err := db.Do(u, func() (*Generated, error) { return &Generated{Latency: 1}, nil })
	if err != nil || g.Latency != 1 || oc != OutcomeGenerated {
		t.Errorf("retry after panic: g=%+v oc=%v err=%v", g, oc, err)
	}
}

func TestNearestTieBreaksOnCanonicalKey(t *testing.T) {
	// Two entries at identical distance from the probe: ±θ rotations are
	// equidistant from the identity under the phase-invariant metric.
	const theta = 0.4
	a, b := rotation(theta), rotation(-theta)
	probe := linalg.Identity(2)
	da := linalg.GlobalPhaseDistance(probe, a)
	if db := linalg.GlobalPhaseDistance(probe, b); math.Abs(da-db) > 1e-15 {
		t.Skipf("distances not exactly tied: %g vs %g", da, db)
	}
	want := CanonicalKey(a)
	if kb := CanonicalKey(b); kb < want {
		want = kb
	}
	// Whatever the insertion order, the tie must resolve to the smaller key.
	for trial := 0; trial < 2; trial++ {
		db := NewDB()
		if trial == 0 {
			db.Store(a, &Generated{Latency: 1})
			db.Store(b, &Generated{Latency: 2})
		} else {
			db.Store(b, &Generated{Latency: 2})
			db.Store(a, &Generated{Latency: 1})
		}
		e, _, ok := db.Nearest(probe, 10)
		if !ok {
			t.Fatal("no nearest entry")
		}
		if e.Key != want {
			t.Errorf("trial %d: tie broke to %q, want smallest key", trial, e.Key[:20])
		}
	}
}

func TestDoSerialMatchesLookupStoreSemantics(t *testing.T) {
	db := NewDB()
	u := quantum.MatH.Clone()
	g1, _, oc, err := db.Do(u, func() (*Generated, error) { return &Generated{Latency: 24}, nil })
	if err != nil || oc != OutcomeGenerated || g1.Latency != 24 {
		t.Fatalf("first Do: g=%+v oc=%v err=%v", g1, oc, err)
	}
	g2, perm, oc, err := db.Do(u, func() (*Generated, error) {
		t.Error("generator re-ran on a hit")
		return nil, nil
	})
	if err != nil || oc != OutcomeHit || perm != nil || g2.Latency != 24 {
		t.Fatalf("second Do: g=%+v oc=%v err=%v", g2, oc, err)
	}
	hits, misses := db.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
	if db.Dedups() != 0 {
		t.Errorf("dedups = %d in serial use", db.Dedups())
	}
}
