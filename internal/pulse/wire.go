package pulse

import (
	"errors"
	"fmt"

	"paqoc/internal/linalg"
)

// maxEntryDim caps a decoded entry's matrix dimension: a 10-qubit unitary,
// far wider than any customized gate. Decode checks it before computing
// Dim*Dim, which would otherwise overflow for a crafted dimension and let
// an empty unitary pass the shape check.
const maxEntryDim = 1 << 10

// ErrEntryTooLarge is wrapped by Decode's error for an entry whose
// declared dimension exceeds the cap of 1024 (a 10-qubit unitary).
var ErrEntryTooLarge = errors.New("pulse: entry dimension exceeds the cap")

// WireEntry is the serialized form of one pulse-database entry. It is the
// unit of exchange everywhere an entry crosses a process boundary: the
// on-disk snapshot format (persist.go) and the cluster replication RPC
// (internal/cluster, re-exported as api.PulseEntry) share it, so a replica
// can ship exactly what a snapshot would hold.
type WireEntry struct {
	Dim       int          `json:"dim"`
	Unitary   [][2]float64 `json:"unitary"` // row-major (re, im)
	Latency   float64      `json:"latency_dt"`
	Fidelity  float64      `json:"fidelity"`
	Error     float64      `json:"error"`
	Schedule  *Schedule    `json:"schedule,omitempty"`
	Protected bool         `json:"protected,omitempty"`
}

// EncodeWire serializes one (unitary, generated) pair. ok is false when a
// NaN or Inf crept into the metadata or samples (a diverged GRAPE run):
// encoding/json rejects non-finite floats, so such entries must be skipped
// rather than poisoning a snapshot or a replication PUT.
func EncodeWire(u *linalg.Matrix, g *Generated, protected bool) (WireEntry, bool) {
	if !generatedFinite(u, g) {
		return WireEntry{}, false
	}
	we := WireEntry{
		Dim:       u.Rows,
		Latency:   g.Latency,
		Fidelity:  g.Fidelity,
		Error:     g.Error,
		Schedule:  g.Schedule,
		Protected: protected,
	}
	we.Unitary = make([][2]float64, len(u.Data))
	for i, v := range u.Data {
		we.Unitary[i] = [2]float64{real(v), imag(v)}
	}
	return we, true
}

// EncodeEntry serializes a stored entry (see EncodeWire for the ok=false
// contract).
func EncodeEntry(e *Entry) (WireEntry, bool) {
	return EncodeWire(e.U, e.Generated, e.protected.Load())
}

// Decode validates and reconstructs the entry: the dimension must be a
// power of two from 2 to 1024, the matrix must be the declared shape, every value
// (unitary, metadata, schedule samples) must be finite, and the matrix
// must be unitary within tolerance — a corrupt snapshot or a malicious
// replication PUT fails fast instead of poisoning warm starts at compile
// time.
func (we WireEntry) Decode() (*linalg.Matrix, *Generated, error) {
	if we.Dim > maxEntryDim {
		return nil, nil, fmt.Errorf("%w: dim %d > %d", ErrEntryTooLarge, we.Dim, maxEntryDim)
	}
	if we.Dim < 2 || we.Dim&(we.Dim-1) != 0 {
		return nil, nil, fmt.Errorf("pulse: entry dim %d is not a qubit register's (a power of two, at least 2)", we.Dim)
	}
	if len(we.Unitary) != we.Dim*we.Dim {
		return nil, nil, fmt.Errorf("pulse: entry has inconsistent dimensions")
	}
	if !finite(we.Latency) || !finite(we.Fidelity) || !finite(we.Error) {
		return nil, nil, fmt.Errorf("pulse: entry has non-finite metadata (latency=%v fidelity=%v error=%v)",
			we.Latency, we.Fidelity, we.Error)
	}
	u := linalg.New(we.Dim, we.Dim)
	for k, v := range we.Unitary {
		if !finite(v[0]) || !finite(v[1]) {
			return nil, nil, fmt.Errorf("pulse: entry has a non-finite amplitude at element %d", k)
		}
		u.Data[k] = complex(v[0], v[1])
	}
	if !u.IsUnitary(loadUnitaryTol) {
		return nil, nil, fmt.Errorf("pulse: entry is not unitary within %g", loadUnitaryTol)
	}
	if s := we.Schedule; s != nil {
		// The duration is what the encoder writes; it overflows when
		// slice_dt alone is finite but huge.
		if !finite(s.Duration()) {
			return nil, nil, fmt.Errorf("pulse: entry has a non-finite duration (slice_dt %v)", s.SliceDt)
		}
		for c, ch := range s.Amps {
			for j, v := range ch {
				if !finite(v) {
					return nil, nil, fmt.Errorf("pulse: entry has a non-finite sample (channel %d, slice %d)", c, j)
				}
			}
		}
	}
	return u, &Generated{
		Latency:  we.Latency,
		Fidelity: we.Fidelity,
		Error:    we.Error,
		Schedule: we.Schedule,
	}, nil
}

// NamespacedKey joins a backend fingerprint and a canonical unitary key
// into the full store key (Entry.Key). The replication layer hashes this
// form for ownership, so two replicas serving different backends never
// contend for the same key space even when a gate's unitary coincides.
// The prefix is constant per DB, so key ordering (Nearest tie-breaks,
// Save's sorted snapshots, eviction ranking) is preserved relative to the
// canonical keys.
func NamespacedKey(fingerprint, canonical string) string {
	if fingerprint == "" {
		return canonical
	}
	return fingerprint + "\x1f" + canonical
}

// generatedFinite reports whether every float the encoder will see is
// finite.
func generatedFinite(u *linalg.Matrix, g *Generated) bool {
	if !finite(g.Latency) || !finite(g.Fidelity) || !finite(g.Error) {
		return false
	}
	if s := g.Schedule; s != nil {
		if !finite(s.Duration()) {
			return false
		}
		for _, ch := range s.Amps {
			for _, v := range ch {
				if !finite(v) {
					return false
				}
			}
		}
	}
	for _, v := range u.Data {
		if !finite(real(v)) || !finite(imag(v)) {
			return false
		}
	}
	return true
}
