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

// LocalGates returns the gate sequence re-indexed onto local wires
// 0..NumQubits-1 (wire i = cg.Qubits[i]).
func (cg *CustomGate) LocalGates() []circuit.Gate {
	idx := make(map[int]int, len(cg.Qubits))
	for i, q := range cg.Qubits {
		idx[q] = i
	}
	out := make([]circuit.Gate, len(cg.Gates))
	for i, g := range cg.Gates {
		ng := g.Clone()
		for j, q := range ng.Qubits {
			ng.Qubits[j] = idx[q]
		}
		out[i] = ng
	}
	return out
}

// Unitary composes the group's unitary on its local wires.
func (cg *CustomGate) Unitary() (*linalg.Matrix, error) {
	ops := make([]quantum.EmbeddedOp, 0, len(cg.Gates))
	for _, g := range cg.LocalGates() {
		u, err := g.Unitary()
		if err != nil {
			return nil, err
		}
		ops = append(ops, quantum.EmbeddedOp{U: u, Wires: g.Qubits})
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
	// Rows, then "re,im;" per entry, each number in its shortest 'g' form.
	b := make([]byte, 0, 8+16*len(u.Data))
	b = strconv.AppendInt(b, int64(u.Rows), 10)
	b = append(b, ':')
	for _, v := range u.Data {
		w := v * phase
		// Quantize to 5 decimals; fold -0 into +0.
		re := math.Round(real(w)*1e5) / 1e5
		im := math.Round(imag(w)*1e5) / 1e5
		if re == 0 {
			re = 0
		}
		if im == 0 {
			im = 0
		}
		b = strconv.AppendFloat(b, re, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, im, 'g', -1, 64)
		b = append(b, ';')
	}
	return string(b)
}
