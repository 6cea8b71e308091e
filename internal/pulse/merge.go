package pulse

import (
	"encoding/json"
	"fmt"
	"io"

	"paqoc/internal/linalg"
)

// EntryByKey fetches the stored entry for a canonical unitary key (the
// un-namespaced CanonicalKey form; the DB's backend fingerprint prefix is
// applied internally). It is the lookup behind the replication RPC's
// GET /internal/v1/pulse/{fingerprint}/{key}: a peer asks the owner for a
// key it computed locally, so the exchange never ships a unitary just to
// ask about it.
func (db *DB) EntryByKey(canonical string) (*Entry, bool) {
	e := db.get(NamespacedKey(db.fingerprint, canonical))
	if e == nil {
		return nil, false
	}
	e.uses.Add(1)
	return e, true
}

// Entries snapshots the live entry pointers (copy-on-snapshot, one shard
// read lock at a time — see snapshotEntries). Entries are immutable apart
// from their ranking state, so callers may read Key/U/Generated freely.
func (db *DB) Entries() []*Entry { return db.snapshotEntries() }

// MergeOutcome says how Merge resolved one entry against the store.
type MergeOutcome int

const (
	// MergeAdded: the key was absent; the entry was inserted.
	MergeAdded MergeOutcome = iota
	// MergeReplaced: the key existed with lower fidelity; the incoming
	// entry replaced it.
	MergeReplaced
	// MergeKept: the key existed with at least the incoming fidelity; the
	// stored entry was kept (the incoming protection flag still sticks).
	MergeKept
)

// Merge stores a generated pulse under u's canonical key with the
// replication conflict rule: keep higher fidelity. An absent key inserts;
// an existing entry is replaced only when the incoming fidelity is
// strictly higher, so two replicas merging each other's stores converge on
// the best pulse either ever generated for a gate. A replaced entry keeps
// its accumulated use count and protection flag (the heat and the §V-C
// APA-basis investment belong to the key, not the samples).
func (db *DB) Merge(u *linalg.Matrix, g *Generated, protected bool) MergeOutcome {
	key := NamespacedKey(db.fingerprint, CanonicalKey(u))
	s := db.shard(key)
	s.mu.Lock()
	prev, ok := s.entries[key]
	if !ok {
		e := &Entry{Key: key, U: u.Clone(), Generated: g, norm2: frobNorm2(u)}
		e.protected.Store(protected)
		s.entries[key] = e
		s.mu.Unlock()
		db.dimIndex(u.Rows).insert(e)
		db.count.Add(1)
		db.maybeEvict()
		return MergeAdded
	}
	if prev.Generated.Fidelity >= g.Fidelity {
		s.mu.Unlock()
		if protected {
			prev.protected.Store(true)
		}
		return MergeKept
	}
	e := &Entry{Key: key, U: u.Clone(), Generated: g, norm2: frobNorm2(u)}
	e.protected.Store(protected || prev.protected.Load())
	e.uses.Store(prev.uses.Load())
	s.entries[key] = e
	s.mu.Unlock()
	// Swap the similarity-index item outside the shard lock (index locks
	// nest inside nothing). Marking prev evicted first closes the race with
	// a concurrent capacity sweep, exactly as eviction does.
	prev.evicted.Store(true)
	db.dimIndex(u.Rows).removeAll(map[*Entry]bool{prev: true})
	db.dimIndex(u.Rows).insert(e)
	return MergeReplaced
}

// MergeReport summarizes one snapshot merge.
type MergeReport struct {
	Added    int `json:"added"`
	Replaced int `json:"replaced"`
	Kept     int `json:"kept"`
}

// MergeSnapshot reads a snapshot written by Save and merges every entry
// into the live store under the keep-higher-fidelity rule — the
// replication layer's snapshot-shipping path, and the safe way to fold one
// replica's persisted warm store into another's without clobbering pulses
// the receiver already generated better. A snapshot fingerprinted for a
// different backend is refused; legacy un-fingerprinted snapshots are
// accepted (they predate namespacing).
func (db *DB) MergeSnapshot(r io.Reader) (MergeReport, error) {
	var rep MergeReport
	var in dbFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return rep, fmt.Errorf("pulse: merging snapshot: %v", err)
	}
	if in.Version != 1 {
		return rep, fmt.Errorf("pulse: unsupported DB version %d", in.Version)
	}
	if in.Fingerprint != "" && in.Fingerprint != db.fingerprint {
		return rep, fmt.Errorf("pulse: snapshot was calibrated for backend fingerprint %q, this store is %q — refusing to merge cross-device pulses",
			in.Fingerprint, db.fingerprint)
	}
	for i, fe := range in.Entries {
		u, g, err := fe.Decode()
		if err != nil {
			return rep, fmt.Errorf("%w (entry %d)", err, i)
		}
		switch db.Merge(u, g, fe.Protected) {
		case MergeAdded:
			rep.Added++
		case MergeReplaced:
			rep.Replaced++
		default:
			rep.Kept++
		}
	}
	return rep, nil
}
