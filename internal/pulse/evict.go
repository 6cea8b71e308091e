package pulse

import "sort"

// SetMaxEntries bounds the database to at most max live entries (0 or
// negative removes the bound). When a Store pushes the count over the
// bound, a ranked eviction sweep removes the coldest entries down to a
// low-watermark slightly below max, so a server at capacity amortizes the
// sweep instead of rescanning on every insert.
//
// Ranking (coldest first): unprotected before protected (APA-basis pulses
// are the offline investment of §V-C and go last), fewer recorded uses
// before more, larger canonical key as the deterministic tie-break.
// Evictions are counted on Evictions() and, when a metrics registry is
// attached, the pulse.evictions counter.
func (db *DB) SetMaxEntries(max int) {
	db.maxEntries.Store(int64(max))
	if max > 0 {
		db.maybeEvict()
	}
}

// maybeEvict applies the capacity bound after an insert. Cheap when under
// capacity: one atomic load and compare.
func (db *DB) maybeEvict() {
	max := db.maxEntries.Load()
	if max <= 0 || db.count.Load() <= max {
		return
	}
	db.evictMu.Lock()
	defer db.evictMu.Unlock()

	// Re-check under the eviction lock: a concurrent sweep may already
	// have brought the count down.
	max = db.maxEntries.Load()
	if max <= 0 || db.count.Load() <= max {
		return
	}
	// Low-watermark batching: clear max/32 extra slots (at least 1) so a
	// steady insert stream triggers one sweep per batch, not per Store.
	lowWater := max - max/32
	if lowWater < 1 {
		lowWater = 1
	}
	need := int(db.count.Load() - lowWater)
	if need <= 0 {
		return
	}

	// Rank a snapshot of the whole store. The snapshot walks one shard at
	// a time under its read lock; ranking and removal happen outside.
	type ranked struct {
		e         *Entry
		uses      int64
		protected bool
	}
	all := db.snapshotEntries()
	cands := make([]ranked, len(all))
	for i, e := range all {
		cands[i] = ranked{e: e, uses: e.uses.Load(), protected: e.protected.Load()}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.protected != b.protected {
			return !a.protected // unprotected evict first
		}
		if a.uses != b.uses {
			return a.uses < b.uses // cold evict first
		}
		return a.e.Key > b.e.Key // deterministic tie-break
	})
	if need > len(cands) {
		need = len(cands)
	}

	victims := make(map[*Entry]bool, need)
	byDim := make(map[int]map[*Entry]bool)
	for _, c := range cands[:need] {
		e := c.e
		s := db.shard(e.Key)
		s.mu.Lock()
		cur, ok := s.entries[e.Key]
		if !ok || cur != e {
			s.mu.Unlock()
			continue // raced with another removal; nothing to do
		}
		delete(s.entries, e.Key)
		s.mu.Unlock()
		e.evicted.Store(true)
		victims[e] = true
		dim := e.U.Rows
		if byDim[dim] == nil {
			byDim[dim] = make(map[*Entry]bool)
		}
		byDim[dim][e] = true
		db.count.Add(-1)
	}
	for dim, set := range byDim {
		db.dimIndex(dim).removeAll(set)
	}
	if n := int64(len(victims)); n > 0 {
		db.evictions.Add(n)
		db.counter("pulse.evictions").Add(n)
	}
}
