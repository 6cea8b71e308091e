package pulse

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

func cg(gates ...circuit.Gate) *CustomGate { return NewCustomGate(gates) }

func TestCustomGateQubitsSortedAndDeduped(t *testing.T) {
	g := cg(
		circuit.Gate{Name: "cx", Qubits: []int{7, 2}},
		circuit.Gate{Name: "h", Qubits: []int{2}},
	)
	if g.NumQubits() != 2 || g.Qubits[0] != 2 || g.Qubits[1] != 7 {
		t.Errorf("Qubits = %v", g.Qubits)
	}
}

func TestCustomGateLocalGates(t *testing.T) {
	g := cg(
		circuit.Gate{Name: "cx", Qubits: []int{7, 2}},
		circuit.Gate{Name: "h", Qubits: []int{7}},
	)
	local := g.LocalGates()
	// Physical 2→local 0, physical 7→local 1.
	if local[0].Qubits[0] != 1 || local[0].Qubits[1] != 0 {
		t.Errorf("local cx qubits = %v", local[0].Qubits)
	}
	if local[1].Qubits[0] != 1 {
		t.Errorf("local h qubit = %v", local[1].Qubits)
	}
	// Original gate must be untouched.
	if g.Gates[0].Qubits[0] != 7 {
		t.Error("LocalGates mutated the stored gates")
	}
}

func TestCustomGateUnitaryMatchesCircuit(t *testing.T) {
	g := cg(
		circuit.Gate{Name: "h", Qubits: []int{0}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
	)
	u, err := g.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	want := quantum.MatCX.Mul(quantum.MatH.Kron(quantum.MatI))
	if !u.Equal(want, 1e-12) {
		t.Error("unitary mismatch")
	}
}

func TestCustomGateDescribe(t *testing.T) {
	g := cg(
		circuit.Gate{Name: "h", Qubits: []int{0}},
		circuit.Gate{Name: "cx", Qubits: []int{0, 1}},
	)
	if got := g.Describe(); got != "[h 0; cx 0 1]" {
		t.Errorf("Describe = %q", got)
	}
}

func TestScheduleDurationAndClone(t *testing.T) {
	s := &Schedule{
		Channels: []string{"a", "b"},
		Amps:     [][]float64{{1, 2, 3}, {4, 5, 6}},
		SliceDt:  4,
	}
	if s.NumSlices() != 3 || s.Duration() != 12 {
		t.Errorf("slices=%d duration=%g", s.NumSlices(), s.Duration())
	}
	c := s.Clone()
	c.Amps[0][0] = 99
	if s.Amps[0][0] == 99 {
		t.Error("Clone shares amp storage")
	}
	empty := &Schedule{}
	if empty.NumSlices() != 0 || empty.Duration() != 0 {
		t.Error("empty schedule accounting wrong")
	}
}

func TestCanonicalKeyPhaseInvariance(t *testing.T) {
	u := quantum.MatH.Clone()
	v := u.Scale(complexExp(0.7))
	if CanonicalKey(u) != CanonicalKey(v) {
		t.Error("keys differ under global phase")
	}
	if CanonicalKey(quantum.MatH) == CanonicalKey(quantum.MatX) {
		t.Error("distinct gates collide")
	}
}

func TestCanonicalKeyQuantization(t *testing.T) {
	u := quantum.MatH.Clone()
	v := u.Clone()
	v.Data[0] += 1e-9 // below quantization
	if CanonicalKey(u) != CanonicalKey(v) {
		t.Error("tiny perturbation changed key")
	}
}

// canonicalKeyFmt is CanonicalKey as first written with fmt, kept as the
// oracle for the byte-identical strconv version.
func canonicalKeyFmt(u *linalg.Matrix) string {
	phase := complex(1, 0)
	for _, v := range u.Data {
		if cmplx.Abs(v) > 1e-7 {
			phase = cmplx.Conj(v / complex(cmplx.Abs(v), 0))
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", u.Rows)
	for _, v := range u.Data {
		w := v * phase
		re := math.Round(real(w)*1e5) / 1e5
		im := math.Round(imag(w)*1e5) / 1e5
		if re == 0 {
			re = 0
		}
		if im == 0 {
			im = 0
		}
		fmt.Fprintf(&b, "%g,%g;", re, im)
	}
	return b.String()
}

func TestCanonicalKeyMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specials := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 4e-6, -6e-6, 1e300, -1e300, 1e21, 123456.789, math.Inf(1)}
	entry := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		default:
			return rng.NormFloat64()
		}
	}
	for i := 0; i < 3000; i++ {
		n := 2 << rng.Intn(3)
		u := linalg.New(n, n)
		for k := range u.Data {
			u.Data[k] = complex(entry(), entry())
		}
		if got, want := CanonicalKey(u), canonicalKeyFmt(u); got != want {
			t.Fatalf("key %q, fmt oracle %q", got, want)
		}
	}
}

func TestDBLookupStore(t *testing.T) {
	db := NewDB()
	u := quantum.MatH.Clone()
	if _, _, ok := db.Lookup(u); ok {
		t.Error("empty DB should miss")
	}
	g := &Generated{Latency: 24, Fidelity: 0.999}
	db.Store(u, g)
	got, _, ok := db.Lookup(u)
	if !ok || got.Latency != 24 {
		t.Error("exact lookup failed")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	hits, misses := db.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestDBStoreIdempotent(t *testing.T) {
	db := NewDB()
	u := quantum.MatX.Clone()
	db.Store(u, &Generated{Latency: 1})
	db.Store(u, &Generated{Latency: 2})
	if db.Len() != 1 {
		t.Error("duplicate store created a new entry")
	}
	got, _, _ := db.Lookup(u)
	if got.Latency != 1 {
		t.Error("second store overwrote the first")
	}
}

func TestDBPermutationDetection(t *testing.T) {
	db := NewDB()
	db.Store(quantum.MatCX.Clone(), &Generated{Latency: 80})
	// CX with swapped qubits.
	rev := quantum.PermuteQubits(quantum.MatCX, []int{1, 0})
	if _, perm, ok := db.Lookup(rev); !ok || perm == nil {
		t.Error("permuted CX not detected")
	}
	// Three-qubit permutation: CCX with controls listed in the other order
	// is the same matrix; CCX with target moved is a real permutation.
	db2 := NewDB()
	db2.Store(quantum.MatCCX.Clone(), &Generated{Latency: 190})
	perm := quantum.PermuteQubits(quantum.MatCCX, []int{2, 0, 1})
	if _, p2, ok := db2.Lookup(perm); !ok || p2 == nil {
		t.Error("permuted CCX not detected")
	}
}

func TestDBPermutationDoesNotFalseHit(t *testing.T) {
	db := NewDB()
	db.Store(quantum.MatCX.Clone(), &Generated{Latency: 80})
	if _, _, ok := db.Lookup(quantum.MatCZ.Clone()); ok {
		t.Error("CZ should not hit a CX entry")
	}
}

func TestDBNearest(t *testing.T) {
	db := NewDB()
	db.Store(quantum.RX(1.0), &Generated{Latency: 10})
	db.Store(quantum.RX(2.0), &Generated{Latency: 20})
	e, d, ok := db.Nearest(quantum.RX(1.05), 1.0)
	if !ok {
		t.Fatal("nearest missed")
	}
	if e.Generated.Latency != 10 {
		t.Error("picked the wrong neighbour")
	}
	if d > 0.2 {
		t.Errorf("distance %g unexpectedly large", d)
	}
	if _, _, ok := db.Nearest(quantum.MatCX.Clone(), 1.0); ok {
		t.Error("dimension mismatch should miss")
	}
	if _, _, ok := db.Nearest(quantum.RX(1.05), 1e-9); ok {
		t.Error("tight threshold should miss")
	}
}

func TestPermutationsCount(t *testing.T) {
	if got := len(permutations(3)); got != 6 {
		t.Errorf("3! = %d", got)
	}
	if got := len(permutations(2)); got != 2 {
		t.Errorf("2! = %d", got)
	}
}

func complexExp(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}

var _ = linalg.Identity

func BenchmarkCanonicalKey8x8(b *testing.B) {
	u := quantum.MatCCX
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalKey(u)
	}
}

func BenchmarkDBLookupPermuted(b *testing.B) {
	db := NewDB()
	db.Store(quantum.MatCCX.Clone(), &Generated{})
	perm := quantum.PermuteQubits(quantum.MatCCX, []int{2, 0, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Lookup(perm)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := &Schedule{
		Channels: []string{"d0.x", "d0.y"},
		Amps:     [][]float64{{0.1, -0.2, 0.3}, {0, 0.05, -0.1}},
		SliceDt:  4,
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SliceDt != 4 || back.NumSlices() != 3 || back.Channels[1] != "d0.y" {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Amps[0][1] != -0.2 {
		t.Error("amplitude corrupted")
	}
}

func TestScheduleJSONErrors(t *testing.T) {
	var s Schedule
	if err := json.Unmarshal([]byte(`{"slice_dt":0}`), &s); err == nil {
		t.Error("zero slice_dt should fail")
	}
	if err := json.Unmarshal([]byte(`{"slice_dt":1,"channels":[{"name":"a","samples":[1]},{"name":"b","samples":[1,2]}]}`), &s); err == nil {
		t.Error("ragged channels should fail")
	}
	if err := json.Unmarshal([]byte(`{nope`), &s); err == nil {
		t.Error("bad json should fail")
	}
}

func TestScheduleRenderASCII(t *testing.T) {
	s := &Schedule{
		Channels: []string{"d0.x"},
		Amps:     [][]float64{{0, 0.5, 1.0, 0.5, 0}},
		SliceDt:  4,
	}
	out := s.RenderASCII()
	if !strings.Contains(out, "d0.x") || !strings.Contains(out, "@") {
		t.Errorf("render missing channel or peak glyph:\n%s", out)
	}
	zero := &Schedule{Channels: []string{"z"}, Amps: [][]float64{{0, 0}}, SliceDt: 1}
	if !strings.Contains(zero.RenderASCII(), "z") {
		t.Error("zero schedule render broken")
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	db.Store(quantum.MatCX.Clone(), &Generated{
		Latency: 80, Fidelity: 0.999, Error: 0.001,
		Schedule: &Schedule{Channels: []string{"d0.x"}, Amps: [][]float64{{0.1, 0.2}}, SliceDt: 4},
	})
	db.Store(quantum.MatH.Clone(), &Generated{Latency: 24, Fidelity: 0.9995, Error: 0.0005})

	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDB(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries", back.Len())
	}
	g, _, ok := back.Lookup(quantum.MatCX.Clone())
	if !ok || g.Latency != 80 || g.Schedule == nil || g.Schedule.Amps[0][1] != 0.2 {
		t.Errorf("CX entry corrupted: %+v", g)
	}
	// Permuted lookups still work on the loaded DB.
	if _, perm, ok := back.Lookup(quantum.PermuteQubits(quantum.MatCX, []int{1, 0})); !ok || perm == nil {
		t.Error("permutation detection lost after reload")
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := LoadDB(strings.NewReader("{broken")); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := LoadDB(strings.NewReader(`{"version":9}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := LoadDB(strings.NewReader(`{"version":1,"entries":[{"dim":2,"unitary":[[1,0]]}]}`)); err == nil {
		t.Error("inconsistent dims should fail")
	}
}
