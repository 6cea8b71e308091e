package pulse

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// dbFile is the on-disk shape of a pulse database: the §V-C offline
// component persists APA-basis and customized-gate pulses here so the
// online component can start warm in a later process.
type dbFile struct {
	Version int `json:"version"`
	// Fingerprint records which backend the pulses were calibrated for
	// (device.Profile.Fingerprint). Empty in snapshots from un-namespaced
	// DBs and in pre-fingerprint files.
	Fingerprint string      `json:"fingerprint,omitempty"`
	Entries     []WireEntry `json:"entries"`
}

// loadUnitaryTol bounds how far a loaded matrix may drift from exact
// unitarity (‖U†U − I‖ entrywise). JSON round-trips float64 exactly and
// stored targets are products of gate unitaries, so a healthy file sits
// orders of magnitude inside this; a corrupt or hand-edited one fails
// fast instead of poisoning warm starts.
const loadUnitaryTol = 1e-6

// SaveReport summarizes one snapshot.
type SaveReport struct {
	// Entries is the number of pulses written.
	Entries int
	// SkippedNonFinite counts entries dropped because a NaN or Inf crept
	// into their metadata or samples (a diverged GRAPE run): encoding them
	// would abort the whole snapshot (encoding/json rejects non-finite
	// floats), which previously wedged periodic snapshotting forever.
	SkippedNonFinite int
}

// Save serializes every stored pulse. The snapshot is copy-on-snapshot:
// entry pointers are copied under the lock, then encoding and writing
// happen outside it — a slow or blocked writer never stalls concurrent
// Store/Do callers. Entries are sorted by canonical key, so two snapshots
// of the same population are byte-identical regardless of map iteration
// or insertion order. Non-finite entries are skipped and counted
// (pulse.save_skipped_nonfinite when a metrics registry is attached)
// rather than failing the snapshot.
func (db *DB) Save(w io.Writer) (SaveReport, error) {
	entries := db.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	var rep SaveReport
	out := dbFile{Version: 1, Fingerprint: db.fingerprint}
	for _, e := range entries {
		fe, ok := EncodeEntry(e)
		if !ok {
			rep.SkippedNonFinite++
			continue
		}
		out.Entries = append(out.Entries, fe)
	}
	rep.Entries = len(out.Entries)
	if rep.SkippedNonFinite > 0 {
		db.counter("pulse.save_skipped_nonfinite").Add(int64(rep.SkippedNonFinite))
	}
	enc := json.NewEncoder(w)
	return rep, enc.Encode(out)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SaveFile writes the database to path crash-safely: the snapshot goes to
// a temporary file in the same directory, is fsynced, and is renamed into
// place, so an interrupted save (crash, SIGKILL, full disk) can never
// corrupt an existing database — readers see either the old file or the
// new one, never a truncated mix. The report is Save's.
func (db *DB) SaveFile(path string) (rep SaveReport, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return rep, fmt.Errorf("pulse: saving DB: %v", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if rep, err = db.Save(tmp); err != nil {
		return rep, err
	}
	if err = tmp.Sync(); err != nil {
		return rep, err
	}
	// CreateTemp opens 0600; match the permissions a plain create would use.
	if err = tmp.Chmod(0o644); err != nil {
		return rep, err
	}
	if err = tmp.Close(); err != nil {
		return rep, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return rep, err
	}
	// Make the rename itself durable: without an fsync of the parent
	// directory, a crash shortly after a snapshot can resurrect the
	// previous file. Best-effort — not every platform supports syncing a
	// directory, and the file contents above are already fsynced.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return rep, nil
}

// LoadFile reads a database from path, pinned to a backend fingerprint as
// LoadDB is. A missing file is not an error: it returns an empty database
// namespaced by fingerprint and ok=false, matching the cold-start flow
// where the file appears after the first save.
func LoadFile(path, fingerprint string) (db *DB, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			db = NewDB()
			db.SetFingerprint(fingerprint)
			return db, false, nil
		}
		return nil, false, err
	}
	defer f.Close()
	db, err = LoadDB(f, fingerprint)
	if err != nil {
		return nil, false, err
	}
	return db, true, nil
}

// LoadDB reads a database written by Save for the serving backend
// fingerprint, validating every entry: the matrix must be the declared
// shape, every value (unitary, metadata, schedule samples) must be finite,
// and the matrix must be unitary within tolerance — a corrupt or
// hand-edited file fails fast with the offending entry's index instead of
// poisoning warm starts at compile time. A snapshot whose fingerprint
// differs from fingerprint is refused, so pulses calibrated for one device
// are never warmed into another's cache; a legacy snapshot with no
// fingerprint is adopted under fingerprint (it predates namespacing and
// can only have come from the default platform). Cache statistics start
// fresh; permutation detection follows NewDB's default (on).
func LoadDB(r io.Reader, fingerprint string) (*DB, error) {
	in, err := readSnapshot(r, fingerprint)
	if err != nil {
		return nil, err
	}
	db := NewDB()
	db.SetFingerprint(fingerprint)
	for i, fe := range in.Entries {
		u, g, err := fe.Decode()
		if err != nil {
			return nil, fmt.Errorf("%w (entry %d)", err, i)
		}
		db.store(u, g, fe.Protected)
	}
	return db, nil
}

// readSnapshot decodes a snapshot's envelope for a store serving the
// backend fingerprint: the version must be 1, and a fingerprinted
// snapshot must match. Entries are left for the caller to Decode.
func readSnapshot(r io.Reader, fingerprint string) (dbFile, error) {
	var in dbFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return in, fmt.Errorf("pulse: reading snapshot: %v", err)
	}
	if in.Version != 1 {
		return in, fmt.Errorf("pulse: unsupported DB version %d", in.Version)
	}
	if in.Fingerprint != "" && in.Fingerprint != fingerprint {
		return in, fmt.Errorf("pulse: snapshot was calibrated for backend fingerprint %q, this store serves %q — refusing cross-device pulses",
			in.Fingerprint, fingerprint)
	}
	return in, nil
}
