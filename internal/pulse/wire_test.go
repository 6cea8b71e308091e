package pulse

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"paqoc/internal/quantum"
)

// overflowEntry declares dim 2^32: dim*dim wraps to 0 on 64-bit ints, so
// an empty unitary used to pass the shape check and panic in IsUnitary.
const overflowEntry = `{"dim":4294967296,"unitary":[],"latency_dt":1,"fidelity":0.999,"error":0.001}`

// TestLoadDBRejectsOverflowDim: a snapshot entry whose dimension would
// overflow the shape check fails as ErrEntryTooLarge on both snapshot
// paths instead of panicking.
func TestLoadDBRejectsOverflowDim(t *testing.T) {
	snap := `{"version":1,"entries":[` + overflowEntry + `]}`
	if _, err := LoadDB(strings.NewReader(snap), ""); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("LoadDB error = %v, want ErrEntryTooLarge", err)
	}
	if _, err := NewDB().MergeSnapshot(strings.NewReader(snap)); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("MergeSnapshot error = %v, want ErrEntryTooLarge", err)
	}
}

// dim1Entry and dim3Entry are unitary but not the size of any qubit
// register: before the check on dim, both loaded, never matched a gate,
// and counted toward capacity.
const (
	dim1Entry = `{"dim":1,"unitary":[[1,0]],"latency_dt":1,"fidelity":0.999,"error":0.001}`
	dim3Entry = `{"dim":3,"unitary":[[1,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[1,0]],"latency_dt":1,"fidelity":0.999,"error":0.001}`
)

// longScheduleEntry has a finite slice_dt whose duration (slices ×
// slice_dt) overflows to +Inf, which the snapshot encoder cannot write.
const longScheduleEntry = `{"dim":2,"unitary":[[1,0],[0,0],[0,0],[1,0]],"latency_dt":1,"fidelity":0.999,"error":0.001,` +
	`"schedule":{"slice_dt":1e308,"channels":[{"name":"d0.x","samples":[0,0]}]}}`

// TestLoadDBRejectsNonQubitDim: an entry whose dim is below 2 or not a
// power of two is refused by Decode, and so by LoadDB and MergeSnapshot.
func TestLoadDBRejectsNonQubitDim(t *testing.T) {
	for _, entry := range []string{dim1Entry, dim3Entry} {
		var we WireEntry
		if err := json.Unmarshal([]byte(entry), &we); err != nil {
			t.Fatal(err)
		}
		if _, _, err := we.Decode(); err == nil {
			t.Errorf("Decode accepted dim %d", we.Dim)
		}
		snap := `{"version":1,"entries":[` + entry + `]}`
		if _, err := LoadDB(strings.NewReader(snap), ""); err == nil {
			t.Errorf("LoadDB accepted dim %d", we.Dim)
		}
		if _, err := NewDB().MergeSnapshot(strings.NewReader(snap)); err == nil {
			t.Errorf("MergeSnapshot accepted dim %d", we.Dim)
		}
	}
}

// FuzzLoadDB: LoadDB never panics; a snapshot it accepts re-saves to bytes
// that reload and re-save to the same bytes; and MergeSnapshot into an
// empty DB with the same fingerprint accepts exactly the snapshots LoadDB
// accepts.
func FuzzLoadDB(f *testing.F) {
	const fp = "backend-a"
	seed := NewDB()
	seed.SetFingerprint(fp)
	seed.Store(rotation(0.3), &Generated{Schedule: testSchedule(1), Latency: 24, Fidelity: 0.999, Error: 0.001})
	seed.Store(quantum.MatCX.Clone(), &Generated{Latency: 80, Fidelity: 0.99, Error: 0.01})
	seed.Protect(quantum.MatCX)
	var buf bytes.Buffer
	if _, err := seed.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, entry := range []string{overflowEntry, dim1Entry, dim3Entry, longScheduleEntry} {
		f.Add([]byte(`{"version":1,"entries":[` + entry + `]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDB(bytes.NewReader(data), fp)
		merged := NewDB()
		merged.SetFingerprint(fp)
		if _, merr := merged.MergeSnapshot(bytes.NewReader(data)); (err == nil) != (merr == nil) {
			t.Fatalf("LoadDB error %v, MergeSnapshot error %v", err, merr)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := db.Save(&first); err != nil {
			t.Fatalf("re-saving an accepted snapshot: %v", err)
		}
		re, err := LoadDB(bytes.NewReader(first.Bytes()), fp)
		if err != nil {
			t.Fatalf("re-saved snapshot does not reload: %v", err)
		}
		if _, err := re.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not stable across a reload:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzWireEntryDecode: Decode never panics, and it returns either an
// error or a matrix of the declared shape.
func FuzzWireEntryDecode(f *testing.F) {
	valid, ok := EncodeWire(rotation(0.3), &Generated{Schedule: testSchedule(1), Latency: 24, Fidelity: 0.999, Error: 0.001}, false)
	if !ok {
		f.Fatal("seed entry did not encode")
	}
	if _, _, err := valid.Decode(); err != nil {
		f.Fatalf("seed entry does not decode: %v", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(overflowEntry))
	f.Fuzz(func(t *testing.T, data []byte) {
		var we WireEntry
		if json.Unmarshal(data, &we) != nil {
			return
		}
		u, g, err := we.Decode()
		if err != nil {
			return
		}
		if u == nil || g == nil {
			t.Fatalf("Decode returned nil without an error")
		}
		if u.Rows != we.Dim || u.Cols != we.Dim || len(u.Data) != we.Dim*we.Dim {
			t.Fatalf("decoded %d×%d (%d elements), declared dim %d", u.Rows, u.Cols, len(u.Data), we.Dim)
		}
	})
}
