package pulse

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// overflowEntry declares dim 2^32: dim*dim wraps to 0 on 64-bit ints, so
// an empty unitary used to pass the shape check and panic in IsUnitary.
const overflowEntry = `{"dim":4294967296,"unitary":[],"latency_dt":1,"fidelity":0.999,"error":0.001}`

// TestLoadDBRejectsOverflowDim: a snapshot entry whose dimension would
// overflow the shape check fails as ErrEntryTooLarge on both snapshot
// paths instead of panicking.
func TestLoadDBRejectsOverflowDim(t *testing.T) {
	snap := `{"version":1,"entries":[` + overflowEntry + `]}`
	if _, err := LoadDB(strings.NewReader(snap)); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("LoadDB error = %v, want ErrEntryTooLarge", err)
	}
	if _, err := NewDB().MergeSnapshot(strings.NewReader(snap)); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("MergeSnapshot error = %v, want ErrEntryTooLarge", err)
	}
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
