package pulse

import (
	"fmt"
	"hash/maphash"
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
//   - Entries and in-flight generations are sharded by canonical-key hash
//     across power-of-two shards, each behind its own RWMutex, so
//     concurrent workers do not contend on one lock.
//   - Do deduplicates concurrent generation of the same canonical unitary
//     singleflight-style — N workers hitting the same customized gate
//     trigger exactly one generator run while the rest block on the result
//     (permuted-key in-flight generations included).
//   - Nearest runs against a per-dimension similarity index (see index.go)
//     that prunes most candidates before the O(dim²) distance.
//   - An optional capacity bound evicts cold entries so a long-running
//     server's memory stays bounded (see evict.go).
//   - Snapshots are copy-on-snapshot: Save clones the entry list under the
//     per-shard locks and encodes outside any lock, so a slow disk never
//     stalls Store/Do (see persist.go).
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

	shards [numShards]shard

	// dims maps matrix dimension → *dimIndex (the Nearest similarity
	// index). sync.Map: a handful of keys, read-mostly.
	dims sync.Map

	// count is the live entry total, maintained by Store/eviction so Len
	// and the capacity check never need a full-DB lock sweep.
	count atomic.Int64

	// maxEntries is the optional capacity bound (0 = unbounded).
	maxEntries atomic.Int64
	evictMu    sync.Mutex

	// metrics optionally receives pulse.* counters (nearest_scanned,
	// nearest_pruned, evictions, save_skipped_nonfinite). Nil-safe.
	metrics atomic.Pointer[obs.Registry]

	// lookupMs/storeMs cache the db_lookup/db_store children of the shared
	// per-stage latency histogram (obs.StageMetric), resolved once in
	// SetMetrics so the hot paths skip the registry and family maps. Nil
	// (no-op, no timing) when no registry is attached.
	lookupMs atomic.Pointer[obs.Histogram]
	storeMs  atomic.Pointer[obs.Histogram]

	hits      atomic.Int64
	misses    atomic.Int64
	dedups    atomic.Int64
	evictions atomic.Int64

	// onWait, when non-nil, runs each time a caller joins an in-flight
	// generation, just before blocking on it. Test-only synchronization
	// seam; set it before sharing the DB across goroutines.
	onWait func()
}

// numShards spreads lock contention across independent key ranges. Power
// of two so the hash maps to a shard with a mask; 32 comfortably exceeds
// any worker-pool width this repo configures.
const numShards = 32

// shard is one lock domain: a slice of the entry map plus the in-flight
// generations whose canonical keys hash here.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	flights map[string]*flight
}

// flight is one in-progress generation; waiters block on done.
type flight struct {
	done chan struct{}
	err  error
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
	// start — the "keep the hot ones" signal for eviction ranking.
	uses atomic.Int64
	// evicted closes the Store-vs-evict race: set (under the dim index
	// lock ordering) before the index drops the entry, checked by the
	// index insert, so a concurrent eviction can never leave a dangling
	// index item for an entry no longer in its shard map.
	evicted atomic.Bool
}

// Protected reports whether the entry is shielded from routine eviction.
func (e *Entry) Protected() bool { return e.protected.Load() }

// Uses returns how many lookups/warm starts this entry has served.
func (e *Entry) Uses() int64 { return e.uses.Load() }

// NewDB returns an empty pulse database with permutation detection on.
func NewDB() *DB {
	db := &DB{DetectPermutations: true}
	for i := range db.shards {
		db.shards[i].entries = make(map[string]*Entry)
		db.shards[i].flights = make(map[string]*flight)
	}
	return db
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

// dbSeed fixes the shard hash across all DBs so permuted keys map to
// stable shards for the ordered multi-shard locking in do().
var dbSeed = maphash.MakeSeed()

// shardIndex maps a canonical key to its shard.
func shardIndex(key string) int {
	return int(maphash.String(dbSeed, key) & (numShards - 1))
}

func (db *DB) shard(key string) *shard { return &db.shards[shardIndex(key)] }

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
func (db *DB) Len() int { return int(db.count.Load()) }

// Stats returns cache hit/miss counters.
func (db *DB) Stats() (hits, misses int) {
	return int(db.hits.Load()), int(db.misses.Load())
}

// Dedups returns the number of generator runs avoided by singleflight
// coalescing in Do: callers that found another worker already generating
// their canonical (or permuted) unitary and blocked on its result.
func (db *DB) Dedups() int64 { return db.dedups.Load() }

// Evictions returns how many entries the capacity bound has removed.
func (db *DB) Evictions() int64 { return db.evictions.Load() }

// permKey pairs a permuted canonical key with the permutation producing it.
type permKey struct {
	key  string
	perm []int
}

// permutedKeys returns the candidate permuted lookups for u: one canonical
// key per non-identity qubit permutation. Nil when detection is off or the
// gate width is outside the bounded 2..3-qubit range (k! ≤ 6).
func (db *DB) permutedKeys(u *linalg.Matrix, usePerms bool) []permKey {
	k := quantum.QubitCount(u)
	if !usePerms || k < 2 || k > 3 {
		return nil
	}
	perms := lookupPerms(k)
	out := make([]permKey, len(perms))
	for i, p := range perms {
		out[i] = permKey{key: NamespacedKey(db.fingerprint, CanonicalKey(quantum.PermuteQubits(u, p))), perm: p}
	}
	return out
}

// get fetches an entry under its shard's read lock.
func (db *DB) get(key string) *Entry {
	s := db.shard(key)
	s.mu.RLock()
	e := s.entries[key]
	s.mu.RUnlock()
	return e
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
	if e := db.get(NamespacedKey(db.fingerprint, CanonicalKey(u))); e != nil {
		db.hits.Add(1)
		e.uses.Add(1)
		return e.Generated, nil, true
	}
	for _, pk := range db.permutedKeys(u, db.DetectPermutations) {
		if e := db.get(pk.key); e != nil {
			db.hits.Add(1)
			e.uses.Add(1)
			return e.Generated, pk.perm, true
		}
	}
	db.misses.Add(1)
	return nil, nil, false
}

// Store records a generated pulse for u. The first store of a canonical
// key wins; duplicates are ignored.
func (db *DB) Store(u *linalg.Matrix, g *Generated) {
	db.store(u, g, false)
}

// store inserts an entry (optionally protected from eviction), indexes it
// for similarity search, and applies the capacity bound.
func (db *DB) store(u *linalg.Matrix, g *Generated, protected bool) {
	var start time.Time
	if db.storeMs.Load() != nil {
		start = time.Now()
	}
	key := NamespacedKey(db.fingerprint, CanonicalKey(u))
	s := db.shard(key)
	s.mu.Lock()
	if prev, ok := s.entries[key]; ok {
		s.mu.Unlock()
		if protected {
			prev.protected.Store(true)
		}
		return
	}
	e := &Entry{Key: key, U: u.Clone(), Generated: g, norm2: frobNorm2(u)}
	e.protected.Store(protected)
	s.entries[key] = e
	s.mu.Unlock()

	db.dimIndex(u.Rows).insert(e)
	db.count.Add(1)
	db.maybeEvict()
	if h := db.storeMs.Load(); h != nil {
		observeSince(h, start)
	}
}

// Protect marks the stored entry for u (if any) as precious: the ranked
// eviction removes protected entries only when nothing unprotected
// remains. The paqoc emitter protects APA-basis pulses — the offline
// investment the online component must keep warm (§V-C).
func (db *DB) Protect(u *linalg.Matrix) {
	if e := db.get(NamespacedKey(db.fingerprint, CanonicalKey(u))); e != nil {
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
	// The slow path must check entries and flights across the exact key
	// and every permuted key atomically (the seed did this under one
	// global lock). With shards, that means write-locking the distinct
	// shards those keys hash to — always in ascending index order, so
	// concurrent do() calls over overlapping shard sets cannot deadlock.
	lockSet := db.lockSet(key, permKeys)
	waited := false
	for {
		// Fast path: read-locked hit checks, one shard at a time. Timed as
		// db_lookup on the shared stage histogram when metrics are attached.
		var lookupStart time.Time
		h := db.lookupMs.Load()
		if h != nil {
			lookupStart = time.Now()
		}
		g, perm, oc, ok := db.tryHit(key, permKeys, waited)
		if h != nil {
			observeSince(h, lookupStart)
		}
		if ok {
			return g, perm, oc, nil
		}

		// Slow path: join an in-flight generation or become the leader.
		db.lockShards(lockSet)
		if e := db.shard(key).entries[key]; e != nil {
			db.unlockShards(lockSet)
			return db.hitResult(e, nil, waited)
		}
		var joined *flight
		if f := db.shard(key).flights[key]; f != nil {
			joined = f
		} else {
			for _, pk := range permKeys {
				sh := db.shard(pk.key)
				if e := sh.entries[pk.key]; e != nil {
					db.unlockShards(lockSet)
					return db.hitResult(e, pk.perm, waited)
				}
				if f := sh.flights[pk.key]; f != nil {
					joined = f
					break
				}
			}
		}
		if joined != nil {
			db.unlockShards(lockSet)
			if db.onWait != nil {
				db.onWait()
			}
			<-joined.done
			waited = true
			continue // the leader stored, errored, or panicked; re-check
		}
		f := &flight{done: make(chan struct{})}
		db.shard(key).flights[key] = f
		db.unlockShards(lockSet)

		db.misses.Add(1)
		g, err := runGenerate(generate)
		if err == nil && g != nil {
			db.Store(u, g)
		}
		s := db.shard(key)
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		f.err = err
		close(f.done)
		return g, nil, OutcomeGenerated, err
	}
}

// lockSet returns the ascending, de-duplicated shard indices covering the
// exact key and every permuted key. At most 1 + 5 keys (3-qubit lookups),
// so a small fixed-capacity slice suffices.
func (db *DB) lockSet(key string, permKeys []permKey) []int {
	set := make([]int, 0, 1+len(permKeys))
	add := func(i int) {
		for _, v := range set {
			if v == i {
				return
			}
		}
		set = append(set, i)
	}
	add(shardIndex(key))
	for _, pk := range permKeys {
		add(shardIndex(pk.key))
	}
	// Insertion sort: ≤ 6 elements.
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j] < set[j-1]; j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
	return set
}

func (db *DB) lockShards(set []int) {
	for _, i := range set {
		db.shards[i].mu.Lock()
	}
}

func (db *DB) unlockShards(set []int) {
	for i := len(set) - 1; i >= 0; i-- {
		db.shards[set[i]].mu.Unlock()
	}
}

// tryHit checks the stored entries under the per-shard read locks.
func (db *DB) tryHit(key string, permKeys []permKey, waited bool) (*Generated, []int, Outcome, bool) {
	if e := db.get(key); e != nil {
		g, perm, oc, _ := db.hitResult(e, nil, waited)
		return g, perm, oc, true
	}
	for _, pk := range permKeys {
		if e := db.get(pk.key); e != nil {
			g, perm, oc, _ := db.hitResult(e, pk.perm, waited)
			return g, perm, oc, true
		}
	}
	return nil, nil, 0, false
}

// hitResult classifies a hit: a plain cache hit when the entry predated
// this call, a dedup when this caller blocked on the generating worker.
func (db *DB) hitResult(e *Entry, perm []int, waited bool) (*Generated, []int, Outcome, error) {
	db.hits.Add(1)
	e.uses.Add(1)
	oc := OutcomeHit
	if perm != nil {
		oc = OutcomePermuted
	}
	if waited {
		db.dedups.Add(1)
		oc = OutcomeDeduped
	}
	return e.Generated, perm, oc, nil
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

// snapshotEntries clones the entry pointer list shard by shard — the
// copy-on-snapshot half of Save. Each shard is read-locked only for the
// duration of its own copy; entries are immutable, so the returned slice
// is a consistent-enough snapshot that never blocks writers for longer
// than one shard's map walk.
func (db *DB) snapshotEntries() []*Entry {
	out := make([]*Entry, 0, db.Len())
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	return out
}

// permTables memoizes permutations by qubit count: the full k! table
// (permutations) and the identity-free table used by lookups
// (lookupPerms). Rebuilt never; callers must not mutate the returned
// slices.
var permTables sync.Map // k → [][]int, full table including identity

func permutations(k int) [][]int {
	if t, ok := permTables.Load(k); ok {
		return t.([][]int)
	}
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, base)
	t, _ := permTables.LoadOrStore(k, out)
	return t.([][]int)
}

var lookupPermTables sync.Map // k → [][]int, identity hoisted out

// lookupPerms returns permutations(k) minus the identity — the identity
// case is the exact-key lookup, so hoisting it here spares every miss one
// PermuteQubits + CanonicalKey round trip.
func lookupPerms(k int) [][]int {
	if t, ok := lookupPermTables.Load(k); ok {
		return t.([][]int)
	}
	var out [][]int
	for _, p := range permutations(k) {
		if !isIdentityPerm(p) {
			out = append(out, p)
		}
	}
	t, _ := lookupPermTables.LoadOrStore(k, out)
	return t.([][]int)
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}
