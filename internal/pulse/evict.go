package pulse

import "sort"

// SetMaxEntries bounds the database to at most max live entries (0 or
// negative removes the bound). When a Store pushes the count over the
// bound, a ranked eviction sweep removes the coldest entries down to a
// low-watermark slightly below max, so a server at capacity amortizes the
// sweep instead of rescanning on every insert. The entry whose insert
// triggered the sweep is never among its victims: it has served no
// lookup yet, so it would otherwise rank coldest and vanish before its
// first hit.
//
// Ranking (coldest first): unprotected before protected (APA-basis pulses
// are the offline investment of §V-C and go last), fewer recorded uses
// before more, larger canonical key as the deterministic tie-break.
// Evictions are counted on Evictions() and, when a metrics registry is
// attached, the pulse.evictions counter.
func (db *DB) SetMaxEntries(max int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.maxEntries = max
	db.evictLocked(nil)
}

// evictLocked applies the capacity bound, sparing the just-inserted entry
// spare (nil when no insert triggered the sweep).
func (db *DB) evictLocked(spare *Entry) {
	max := db.maxEntries
	if max <= 0 || len(db.entries) <= max {
		return
	}
	// Low-watermark batching: clear max/32 extra slots (at least 1) so a
	// steady insert stream triggers one sweep per batch, not per Store.
	lowWater := max - max/32
	if lowWater < 1 {
		lowWater = 1
	}
	cands := make([]*Entry, 0, len(db.entries))
	for _, e := range db.entries {
		if e != spare {
			cands = append(cands, e)
		}
	}
	// Uses and protection change only under db.mu, so the ranking is
	// stable for the whole sort.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if pa, pb := a.protected.Load(), b.protected.Load(); pa != pb {
			return !pa // unprotected evict first
		}
		if ua, ub := a.uses.Load(), b.uses.Load(); ua != ub {
			return ua < ub // cold evict first
		}
		return a.Key > b.Key // deterministic tie-break
	})
	need := min(len(db.entries)-lowWater, len(cands))

	victims := make(map[*Entry]bool, need)
	for _, e := range cands[:need] {
		delete(db.entries, e.Key)
		victims[e] = true
	}
	for _, ix := range db.dims {
		ix.removeAll(victims)
	}
	db.evictions += int64(need)
	db.counter("pulse.evictions").Add(int64(need))
}
