package pulse

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/quantum"
)

// DB is the pulse database of §V-B: previously generated pulses keyed by
// the canonical unitary of the customized gate. Lookups also detect the
// same gate with permuted qubits, and a similarity search supplies a warm
// initial guess to GRAPE for near-miss unitaries (as in AccQOC).
//
// A DB is safe for concurrent use and built to be shared by a whole
// compile fleet (engine workers, paqoc-server requests):
//
//   - One mutex guards the entries, the in-flight generations, the
//     similarity index and the counters. It is never held while a
//     generator runs or while a snapshot is encoded or written.
//   - Do deduplicates concurrent generation of the same canonical unitary
//     singleflight-style — N workers hitting the same customized gate
//     trigger exactly one generator run while the rest block on the result
//     (permuted-key in-flight generations included).
//   - Nearest runs against a per-dimension similarity index (see index.go)
//     that prunes most candidates before the O(dim²) distance.
//   - An optional capacity bound evicts cold entries so a long-running
//     server's memory stays bounded (see evict.go).
//   - Snapshots are copy-on-snapshot: Save copies the entry list under the
//     lock and encodes outside it, so a slow disk never stalls Store/Do
//     (see persist.go).
type DB struct {
	// DetectPermutations enables the §V-B permuted-qubit lookup — a PAQOC
	// feature the AccQOC baseline does not have. Set it before sharing the
	// DB across goroutines.
	DetectPermutations bool

	// fingerprint namespaces every key by the serving backend's physical
	// identity (device.Profile.Fingerprint): a pulse calibrated for one
	// device must never satisfy a lookup for another, even inside one
	// process holding several DBs. Empty means un-namespaced (single-device
	// deployments and legacy snapshots). Set via SetFingerprint before any
	// store.
	fingerprint string

	// mu guards entries, flights, dims, maxEntries and the four counters.
	mu      sync.Mutex
	entries map[string]*Entry
	// flights holds one channel per in-progress generation, keyed by the
	// leader's canonical key; the leader closes it when done.
	flights map[string]chan struct{}
	// dims maps matrix dimension → the Nearest similarity index.
	dims map[int]*dimIndex
	// maxEntries is the optional capacity bound (0 = unbounded).
	maxEntries int

	hits, misses, dedups, evictions int64

	// metrics optionally receives pulse.* counters (nearest_scanned,
	// nearest_pruned, evictions, save_skipped_nonfinite). Nil-safe.
	metrics atomic.Pointer[obs.Registry]

	// lookupMs/storeMs cache the db_lookup/db_store children of the shared
	// per-stage latency histogram (obs.StageMetric), resolved once in
	// SetMetrics so the hot paths skip the registry and family maps. Nil
	// (no-op, no timing) when no registry is attached.
	lookupMs atomic.Pointer[obs.Histogram]
	storeMs  atomic.Pointer[obs.Histogram]

	// onWait, when non-nil, runs each time a caller joins an in-flight
	// generation, just before blocking on it. Test-only synchronization
	// seam; set it before sharing the DB across goroutines.
	onWait func()
}

// Entry is one stored pulse. Entries are immutable once stored, except
// for the eviction-ranking state (hit count, protection flag).
type Entry struct {
	Key       string
	U         *linalg.Matrix
	Generated *Generated

	// norm2 caches ‖U‖²_F for the one-pass phase-invariant distance.
	norm2 float64
	// protected marks APA-basis (and other precious) entries: the ranked
	// eviction removes them only when nothing unprotected remains.
	protected atomic.Bool
	// uses counts how often this entry served a lookup, dedup, or warm
	// start — the "keep the hot ones" signal for eviction ranking. Both
	// fields are written under the DB lock and atomic because the miner
	// reads Uses without it.
	uses atomic.Int64
}

// Protected reports whether the entry is shielded from routine eviction.
func (e *Entry) Protected() bool { return e.protected.Load() }

// Uses returns how many lookups/warm starts this entry has served.
func (e *Entry) Uses() int64 { return e.uses.Load() }

// newEntry copies u into a fresh entry stored under key.
func newEntry(key string, u *linalg.Matrix, g *Generated, protected bool) *Entry {
	e := &Entry{Key: key, U: u.Clone(), Generated: g, norm2: frobNorm2(u)}
	e.protected.Store(protected)
	return e
}

// NewDB returns an empty pulse database with permutation detection on.
func NewDB() *DB {
	return &DB{
		DetectPermutations: true,
		entries:            make(map[string]*Entry),
		flights:            make(map[string]chan struct{}),
		dims:               make(map[int]*dimIndex),
	}
}

// SetFingerprint namespaces the DB's keys by a backend fingerprint. It
// must be called on an empty DB (keys embed the fingerprint, so flipping
// it later would orphan stored entries) and before the DB is shared across
// goroutines.
func (db *DB) SetFingerprint(fp string) {
	if db.Len() > 0 {
		panic("pulse: SetFingerprint on a non-empty DB")
	}
	db.fingerprint = fp
}

// Fingerprint returns the backend fingerprint the DB is namespaced by
// (empty when un-namespaced).
func (db *DB) Fingerprint() string { return db.fingerprint }

// SetMetrics attaches a registry for the pulse.* counters and the
// db_lookup/db_store latency histograms. Safe to call concurrently; a nil
// registry detaches, and a nil DB ignores the call.
func (db *DB) SetMetrics(reg *obs.Registry) {
	if db == nil {
		return
	}
	db.metrics.Store(reg)
	if reg == nil {
		db.lookupMs.Store(nil)
		db.storeMs.Store(nil)
		return
	}
	stage := reg.HistogramVec(obs.StageMetric, obs.LatencyBuckets, "stage")
	db.lookupMs.Store(stage.WithLabelValues("db_lookup"))
	db.storeMs.Store(stage.WithLabelValues("db_store"))
}

// observeSince records elapsed wall time in milliseconds on a cached stage
// histogram child.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// counter resolves a named counter on the attached registry (nil-safe:
// increments vanish when no registry is attached).
func (db *DB) counter(name string) *obs.Counter {
	return db.metrics.Load().Counter(name)
}

// Len returns the number of stored pulses.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Stats returns cache hit/miss counters.
func (db *DB) Stats() (hits, misses int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int(db.hits), int(db.misses)
}

// Dedups returns the number of generator runs avoided by singleflight
// coalescing in Do: callers that found another worker already generating
// their canonical (or permuted) unitary and blocked on its result.
func (db *DB) Dedups() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dedups
}

// Evictions returns how many entries the capacity bound has removed.
func (db *DB) Evictions() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.evictions
}

// permKey pairs a permuted canonical key with the permutation producing it.
type permKey struct {
	key  string
	perm []int
}

// lookupPerms lists, by qubit count, the non-identity qubit permutations
// in lexicographic order. The identity is the exact-key lookup, so
// leaving it out spares every miss one PermuteQubits + CanonicalKey round
// trip. Callers must not mutate the returned slices.
var lookupPerms = [...][][]int{
	2: {{1, 0}},
	3: {{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}},
}

// permutedKeys returns the candidate permuted lookups for u: one canonical
// key per non-identity qubit permutation. Nil when detection is off or the
// gate width is outside the bounded 2..3-qubit range (k! ≤ 6).
func (db *DB) permutedKeys(u *linalg.Matrix, usePerms bool) []permKey {
	k := quantum.QubitCount(u)
	if !usePerms || k < 2 || k > 3 {
		return nil
	}
	perms := lookupPerms[k]
	out := make([]permKey, len(perms))
	// One buffer holds each permuted unitary in turn: EmbedInto with the
	// permutation as wires is quantum.PermuteQubits' result.
	pu := linalg.New(u.Rows, u.Cols)
	for i, p := range perms {
		quantum.EmbedInto(pu, u, p, k)
		out[i] = permKey{key: NamespacedKey(db.fingerprint, CanonicalKey(pu)), perm: p}
	}
	return out
}

// findLocked returns the stored entry under the exact key, or else under
// the first permuted key that holds one, with that key's permutation.
func (db *DB) findLocked(key string, permKeys []permKey) (*Entry, []int) {
	if e := db.entries[key]; e != nil {
		return e, nil
	}
	for _, pk := range permKeys {
		if e := db.entries[pk.key]; e != nil {
			return e, pk.perm
		}
	}
	return nil, nil
}

// get fetches the entry stored under key.
func (db *DB) get(key string) *Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.entries[key]
}

// Peek returns the live entry stored under u's exact canonical key without
// recording a use or a miss — introspection for services that track an
// entry's lifecycle (the offline miner's pregen-hit accounting), not a
// lookup path. Permuted keys are not consulted.
func (db *DB) Peek(u *linalg.Matrix) (*Entry, bool) {
	e := db.get(NamespacedKey(db.fingerprint, CanonicalKey(u)))
	return e, e != nil
}

// Lookup finds a stored pulse for u, trying first the exact canonical key
// and then every qubit permutation of u (§V-B: "for the same customized
// gate with permuted qubits, it will also be detected"). The permutation
// search is bounded: k! for k-qubit gates with k ≤ 3 is at most 6.
//
// On a permuted hit, perm is the non-nil permutation such that the stored
// entry's unitary equals PermuteQubits(u, perm): the stored entry's local
// qubit i plays the role of u's local qubit perm[i]. Consumers that reuse
// the stored *schedule* (not just its latency) must remap control channels
// accordingly — see grape.Generator. perm is nil on exact hits.
func (db *DB) Lookup(u *linalg.Matrix) (gen *Generated, perm []int, ok bool) {
	if h := db.lookupMs.Load(); h != nil {
		defer observeSince(h, time.Now())
	}
	key := NamespacedKey(db.fingerprint, CanonicalKey(u))
	permKeys := db.permutedKeys(u, db.DetectPermutations)
	db.mu.Lock()
	defer db.mu.Unlock()
	e, perm := db.findLocked(key, permKeys)
	if e == nil {
		db.misses++
		return nil, nil, false
	}
	db.hits++
	e.uses.Add(1)
	return e.Generated, perm, true
}

// Store records a generated pulse for u. The first store of a canonical
// key wins; duplicates are ignored.
func (db *DB) Store(u *linalg.Matrix, g *Generated) {
	db.store(u, g, false)
}

// store inserts an entry (optionally protected from eviction) under u's
// namespaced canonical key.
func (db *DB) store(u *linalg.Matrix, g *Generated, protected bool) {
	db.storeKey(NamespacedKey(db.fingerprint, CanonicalKey(u)), u, g, protected)
}

// storeKey inserts an entry under key, which must be u's namespaced
// canonical key, indexes it for similarity search, and applies the
// capacity bound. The first store of a key wins.
func (db *DB) storeKey(key string, u *linalg.Matrix, g *Generated, protected bool) {
	var start time.Time
	h := db.storeMs.Load()
	if h != nil {
		start = time.Now()
	}
	db.mu.Lock()
	if prev := db.entries[key]; prev != nil {
		if protected {
			prev.protected.Store(true)
		}
		db.mu.Unlock()
		return
	}
	db.insertLocked(newEntry(key, u, g, protected))
	db.mu.Unlock()
	if h != nil {
		observeSince(h, start)
	}
}

// insertLocked adds a new entry to the map and the similarity index, then
// applies the capacity bound, which never evicts e itself.
func (db *DB) insertLocked(e *Entry) {
	db.entries[e.Key] = e
	ix := db.dims[e.U.Rows]
	if ix == nil {
		ix = &dimIndex{}
		db.dims[e.U.Rows] = ix
	}
	ix.insert(e)
	db.evictLocked(e)
}

// Protect marks the stored entry for u (if any) as precious: the ranked
// eviction removes protected entries only when nothing unprotected
// remains. The paqoc emitter protects APA-basis pulses — the offline
// investment the online component must keep warm (§V-C).
func (db *DB) Protect(u *linalg.Matrix) {
	key := NamespacedKey(db.fingerprint, CanonicalKey(u))
	db.mu.Lock()
	defer db.mu.Unlock()
	if e := db.entries[key]; e != nil {
		e.protected.Store(true)
	}
}

// Outcome says how Do satisfied a request.
type Outcome int

const (
	// OutcomeGenerated: this caller ran the generator (a fresh miss).
	OutcomeGenerated Outcome = iota
	// OutcomeHit: an already-stored entry matched the exact canonical key.
	OutcomeHit
	// OutcomePermuted: an already-stored entry matched a permuted key.
	OutcomePermuted
	// OutcomeDeduped: another worker was generating this unitary (or a
	// permutation of it); this caller blocked and reused its result. perm
	// is non-nil when the reused entry sits under a permuted key.
	OutcomeDeduped
)

// Do serves u from the database or, on a miss, runs generate exactly once
// across concurrent callers: the first caller to miss a canonical key
// becomes the leader and runs generate; callers arriving for the same key
// (or, with DetectPermutations, a permuted key) while the leader is in
// flight block until it finishes and reuse the stored result. A leader
// error releases the waiters, and the first of them retries as the new
// leader. On success the result is stored under u's canonical key.
//
// perm follows the Lookup contract: non-nil when the returned entry sits
// under a permuted key (outcome OutcomePermuted, or OutcomeDeduped after
// waiting on a permuted in-flight generation).
func (db *DB) Do(u *linalg.Matrix, generate func() (*Generated, error)) (*Generated, []int, Outcome, error) {
	return db.do(u, db.DetectPermutations, generate)
}

// DoExact is Do with permutation detection disabled for this call: only
// the exact canonical key is consulted for hits and in-flight coalescing.
// Callers use it to regenerate after rejecting a permuted hit (e.g. a
// stored schedule whose channels cannot be remapped onto this gate).
func (db *DB) DoExact(u *linalg.Matrix, generate func() (*Generated, error)) (*Generated, []int, Outcome, error) {
	return db.do(u, false, generate)
}

func (db *DB) do(u *linalg.Matrix, usePerms bool, generate func() (*Generated, error)) (*Generated, []int, Outcome, error) {
	key := NamespacedKey(db.fingerprint, CanonicalKey(u))
	permKeys := db.permutedKeys(u, usePerms)
	for waited := false; ; waited = true {
		// Stored entries first (exact, then permuted), timed as db_lookup
		// on the shared stage histogram when metrics are attached; then
		// in-flight generations in the same order.
		h := db.lookupMs.Load()
		var start time.Time
		if h != nil {
			start = time.Now()
		}
		db.mu.Lock()
		e, perm := db.findLocked(key, permKeys)
		if h != nil {
			observeSince(h, start)
		}
		if e != nil {
			db.hits++
			e.uses.Add(1)
			oc := OutcomeHit
			if perm != nil {
				oc = OutcomePermuted
			}
			if waited {
				db.dedups++
				oc = OutcomeDeduped
			}
			db.mu.Unlock()
			return e.Generated, perm, oc, nil
		}
		done := db.flights[key]
		for i := 0; done == nil && i < len(permKeys); i++ {
			done = db.flights[permKeys[i].key]
		}
		if done != nil {
			db.mu.Unlock()
			if db.onWait != nil {
				db.onWait()
			}
			<-done
			continue // the leader stored, errored, or panicked; re-check
		}
		done = make(chan struct{})
		db.flights[key] = done
		db.misses++
		db.mu.Unlock()

		g, err := runGenerate(generate)
		if err == nil && g != nil {
			db.storeKey(key, u, g, false)
		}
		db.mu.Lock()
		delete(db.flights, key)
		db.mu.Unlock()
		close(done)
		return g, nil, OutcomeGenerated, err
	}
}

// runGenerate converts a generator panic into an error so singleflight
// waiters are always released.
func runGenerate(generate func() (*Generated, error)) (g *Generated, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pulse: generator panic: %v", r)
		}
	}()
	return generate()
}
