// Package pulse defines the control-pulse representation shared by the
// GRAPE optimizer, the analytical latency model, and the PAQOC framework:
// piecewise-constant schedules, generated-pulse metadata, the customized
// gate (a group of consecutive basis gates), and the pulse database
// (§V-B) with canonical-unitary lookup, permutation detection, and
// similarity-based initial-guess reuse.
package pulse

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"sort"
	"strconv"
	"strings"

	"paqoc/internal/circuit"
	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// Schedule is a piecewise-constant multi-channel control schedule:
// Amps[k][j] is channel k's amplitude during slice j, each slice lasting
// SliceDt device dt units.
type Schedule struct {
	Channels []string
	Amps     [][]float64
	SliceDt  float64
}

// NumSlices returns the number of time slices.
func (s *Schedule) NumSlices() int {
	if len(s.Amps) == 0 {
		return 0
	}
	return len(s.Amps[0])
}

// Duration returns the schedule length in dt.
func (s *Schedule) Duration() float64 { return float64(s.NumSlices()) * s.SliceDt }

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Channels: append([]string(nil), s.Channels...), SliceDt: s.SliceDt}
	out.Amps = make([][]float64, len(s.Amps))
	for k := range s.Amps {
		out.Amps[k] = append([]float64(nil), s.Amps[k]...)
	}
	return out
}

// Generated is the result of pulse generation for one customized gate.
type Generated struct {
	Schedule *Schedule // nil for model-based generation
	Latency  float64   // pulse duration in dt
	Fidelity float64   // achieved gate fidelity
	Error    float64   // |U - H(t)| proxy: 1 - Fidelity, the ε of Eq. (2)
	CacheHit bool      // true when served from the pulse database
	Cost     float64   // synthetic compile-time cost units spent generating
}

// CustomGate is a group of consecutive basis gates treated as one unit for
// pulse generation (§V). Gates are in program order; Qubits is the sorted
// set of physical qubits the group touches.
type CustomGate struct {
	Gates  []circuit.Gate
	Qubits []int
}

// NewCustomGate builds a CustomGate from a gate sequence.
func NewCustomGate(gates []circuit.Gate) *CustomGate {
	set := map[int]bool{}
	for _, g := range gates {
		for _, q := range g.Qubits {
			set[q] = true
		}
	}
	qs := make([]int, 0, len(set))
	for q := range set {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	cp := make([]circuit.Gate, len(gates))
	for i, g := range gates {
		cp[i] = g.Clone()
	}
	return &CustomGate{Gates: cp, Qubits: qs}
}

// NumQubits returns the number of distinct qubits in the group — the
// paper's N_Q(X).
func (cg *CustomGate) NumQubits() int { return len(cg.Qubits) }

// LocalWire returns the local wire of physical qubit q: its position in
// cg.Qubits (the last one if q is listed twice), or 0 if it is not listed.
func (cg *CustomGate) LocalWire(q int) int {
	w := 0
	for i, p := range cg.Qubits {
		if p == q {
			w = i
		}
	}
	return w
}

// Unitary composes the group's unitary on its local wires (wire i =
// cg.Qubits[i]). Every gate's matrix is resolved, in program order,
// before any is embedded, so a symbolic, unknown or mis-parameterized
// gate returns its error ahead of quantum.Embed's panics on bad wires.
func (cg *CustomGate) Unitary() (*linalg.Matrix, error) {
	nw := 0
	for _, g := range cg.Gates {
		nw += len(g.Qubits)
	}
	ops := make([]quantum.EmbeddedOp, len(cg.Gates))
	wires := make([]int, 0, nw)
	for i, g := range cg.Gates {
		u, err := g.Matrix()
		if err != nil {
			return nil, err
		}
		start := len(wires)
		for _, q := range g.Qubits {
			wires = append(wires, cg.LocalWire(q))
		}
		ops[i] = quantum.EmbeddedOp{U: u, Wires: wires[start:]}
	}
	return quantum.SequenceUnitary(cg.NumQubits(), ops), nil
}

// Describe renders the group compactly, e.g. "[h 0; cx 0 1]".
func (cg *CustomGate) Describe() string {
	parts := make([]string, len(cg.Gates))
	for i, g := range cg.Gates {
		parts[i] = g.String()
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

// Generator produces control pulses for a customized gate at a given
// fidelity target. The interface is context-first: the context carries
// cancellation and the observability backends (internal/obs spans and
// metrics), and implementations must behave identically when it carries
// nothing. Implementations: grape.Generator (real QOC) and latency.Model
// (the paper's analytical model, §III-B).
type Generator interface {
	GenerateCtx(ctx context.Context, cg *CustomGate, fidelityTarget float64) (*Generated, error)
}

// ErrFidelityUnreachable is wrapped (%w) by a Generator that could not
// realize a customized gate at the fidelity target within its duration
// budget. It is a property of the gate group, not a transient fault: the
// paqoc emitter answers it by emitting a multi-gate group's gates one by
// one.
var ErrFidelityUnreachable = errors.New("fidelity target unreachable within the duration budget")

// DBProvider is implemented by generators backed by a pulse database
// (grape.Generator, latency.Model). The paqoc emitter uses it to reach
// the shared DB for policy decisions the generator cannot make itself —
// e.g. protecting APA-basis entries from capacity eviction.
type DBProvider interface {
	PulseDB() *DB
}

// Remote is a cross-replica pulse source consulted on local database
// misses, implemented by cluster.Remote. FetchPulse asks the key's owner
// replica for an already-generated pulse (false on miss, owner-is-self, or
// any peer failure — callers degrade to local generation, never error).
// PublishPulse write-through-ships a freshly generated pulse to its owner
// so the next replica to miss finds it there. Both are best-effort: a
// Remote must never fail a compilation.
type Remote interface {
	FetchPulse(ctx context.Context, u *linalg.Matrix) (*Generated, bool)
	PublishPulse(ctx context.Context, u *linalg.Matrix, g *Generated)
}

// CanonicalKey returns a hashable identifier of a unitary modulo global
// phase, for exact pulse-database lookup. Entries are quantized so that
// numerically equal unitaries from different gate decompositions collide.
//
// The bytes are a compatibility contract: snapshots, cluster PUT paths and
// remote fetches compare keys across versions (DESIGN.md, "Canonical
// keys"). Each number is written as strconv.AppendFloat(k/1e5, 'g', -1, 64)
// writes it, for k = math.Round(x·1e5), but from the integer k.
func CanonicalKey(u *linalg.Matrix) string {
	// Normalize phase: rotate so the first entry with |v| > tol is real
	// positive.
	phase := complex(1, 0)
	for _, v := range u.Data {
		if cmplx.Abs(v) > 1e-7 {
			phase = cmplx.Conj(v / complex(cmplx.Abs(v), 0))
			break
		}
	}
	// Rows, then "re,im;" per entry. An 8×8 key fits the stack buffer, so
	// the string is the one allocation.
	var buf [1280]byte
	b := strconv.AppendInt(buf[:0], int64(u.Rows), 10)
	b = append(b, ':')
	for _, v := range u.Data {
		w := v * phase
		b = appendQuantum(b, math.Round(real(w)*1e5))
		b = append(b, ',')
		b = appendQuantum(b, math.Round(imag(w)*1e5))
		b = append(b, ';')
	}
	return string(b)
}

// appendQuantum appends the shortest 'g' form of k/1e5 for an integral k,
// with −0 folded into "0". Below 1e11 in magnitude it writes the digits of
// k itself: "Ne-05" for |k| < 10 (where 'g' turns to an exponent), else
// the integer part and up to five decimals without trailing zeros, which
// are the shortest digits that round-trip k/1e5 since k has at most 11.
// NaN, ±Inf and |k| ≥ 1e11 (k/1e5 ≥ 1e6, exponent form again) take
// strconv's path.
func appendQuantum(b []byte, k float64) []byte {
	if k == 0 {
		return append(b, '0')
	}
	if !(math.Abs(k) < 1e11) {
		return strconv.AppendFloat(b, k/1e5, 'g', -1, 64)
	}
	n := int64(k)
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	if n < 10 {
		return append(b, byte('0'+n), 'e', '-', '0', '5')
	}
	b = strconv.AppendInt(b, n/1e5, 10)
	frac := n % 1e5
	if frac == 0 {
		return b
	}
	var d [6]byte
	d[0] = '.'
	for i := 5; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	end := len(d)
	for d[end-1] == '0' {
		end--
	}
	return append(b, d[:end]...)
}
