package pulse

import (
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
	db.mu.Lock()
	defer db.mu.Unlock()
	e := db.entries[NamespacedKey(db.fingerprint, canonical)]
	if e == nil {
		return nil, false
	}
	e.uses.Add(1)
	return e, true
}

// Entries snapshots the live entry pointers (copy-on-snapshot: the list
// is copied under the lock). Entries are immutable apart from their
// ranking state, so callers may read Key/U/Generated freely.
func (db *DB) Entries() []*Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*Entry, 0, len(db.entries))
	for _, e := range db.entries {
		out = append(out, e)
	}
	return out
}

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
	db.mu.Lock()
	defer db.mu.Unlock()
	prev := db.entries[key]
	if prev == nil {
		db.insertLocked(newEntry(key, u, g, protected))
		return MergeAdded
	}
	if prev.Generated.Fidelity >= g.Fidelity {
		if protected {
			prev.protected.Store(true)
		}
		return MergeKept
	}
	e := newEntry(key, u, g, protected || prev.protected.Load())
	e.uses.Store(prev.uses.Load())
	db.entries[key] = e
	ix := db.dims[u.Rows]
	ix.removeAll(map[*Entry]bool{prev: true})
	ix.insert(e)
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
	in, err := readSnapshot(r, db.fingerprint)
	if err != nil {
		return rep, err
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
