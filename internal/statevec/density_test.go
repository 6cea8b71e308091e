package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// Coherence times of the registered device profiles, in dt.
const testT1, testT2 = 40000.0, 20000.0

func trace(d *Density) float64  { return real(d.Rho.Trace()) }
func purity(d *Density) float64 { return real(d.Rho.Mul(d.Rho).Trace()) }

// timedGate is a gate with its pulse duration in dt.
type timedGate struct {
	u        *linalg.Matrix
	wires    []int
	duration float64
}

// runNoisy plays gates on |0…0⟩, each followed by its decay, and returns
// ⟨ideal|ρ|ideal⟩ for the noiseless statevector run of the same gates.
func runNoisy(t *testing.T, n int, gates []timedGate, t1, t2 float64) float64 {
	t.Helper()
	d, _ := NewDensity(n)
	ideal, _ := NewState(n)
	for _, g := range gates {
		if err := d.ApplyUnitary(g.u, g.wires); err != nil {
			t.Fatal(err)
		}
		if err := ideal.ApplyUnitary(g.u, g.wires); err != nil {
			t.Fatal(err)
		}
		d.Decay(g.duration, t1, t2)
	}
	f, err := d.Fidelity(ideal)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewDensityBounds(t *testing.T) {
	if _, err := NewDensity(0); err == nil {
		t.Error("0 qubits should fail")
	}
	if _, err := NewDensity(MaxDensityQubits + 1); err == nil {
		t.Error("oversized register should fail")
	}
	d, err := NewDensity(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trace(d)-1) > 1e-12 || math.Abs(purity(d)-1) > 1e-12 {
		t.Error("initial state should be pure with unit trace")
	}
}

func TestUnitaryEvolutionMatchesStatevector(t *testing.T) {
	// Without noise, the density matrix is |ψ⟩⟨ψ| of the statevector run.
	rng := rand.New(rand.NewSource(5))
	var gates []timedGate
	for i := 0; i < 10; i++ {
		a := rng.Intn(3)
		b := (a + 1 + rng.Intn(2)) % 3
		gates = append(gates, timedGate{quantum.MatCX, []int{a, b}, 80}, timedGate{quantum.MatH, []int{a}, 24})
	}
	if f := runNoisy(t, 3, gates, 0, 0); math.Abs(f-1) > 1e-9 {
		t.Errorf("noiseless density run deviates from statevector: fidelity %g", f)
	}
}

func TestAmplitudeDampingDecaysExcitedState(t *testing.T) {
	d, _ := NewDensity(1)
	d.ApplyUnitary(quantum.MatX, []int{0}) // |1>
	d.Decay(1000, 1000, 0)                 // one T1, no dephasing
	// P(|1>) should be e^{-1}.
	if got := real(d.Rho.At(1, 1)); math.Abs(got-math.Exp(-1)) > 1e-9 {
		t.Errorf("P(1) = %g, want e^-1", got)
	}
	if math.Abs(trace(d)-1) > 1e-9 {
		t.Error("trace not preserved")
	}
}

func TestDephasingKillsCoherence(t *testing.T) {
	d, _ := NewDensity(1)
	d.ApplyUnitary(quantum.MatH, []int{0}) // |+>
	if math.Abs(real(d.Rho.At(0, 1))-0.5) > 1e-12 {
		t.Fatal("coherence setup wrong")
	}
	d.Decay(2000, 0, 1000)
	// Off-diagonal decays, populations stay 1/2 each.
	if math.Abs(real(d.Rho.At(0, 0))-0.5) > 1e-9 {
		t.Error("dephasing changed populations")
	}
	if math.Abs(real(d.Rho.At(0, 1))) > 0.25 {
		t.Errorf("coherence %g should have decayed well below 0.5", real(d.Rho.At(0, 1)))
	}
	if purity(d) > 0.99 {
		t.Error("state should be mixed after dephasing")
	}
}

func TestDecayIsTracePreserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _ := NewDensity(2)
		d.ApplyUnitary(quantum.MatH, []int{0})
		d.ApplyUnitary(quantum.MatCX, []int{0, 1})
		d.Decay(1000*rng.Float64(), 2000*rng.Float64(), 2000*rng.Float64())
		return math.Abs(trace(d)-1) < 1e-9 && purity(d) <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBellWithNoise(t *testing.T) {
	gates := []timedGate{
		{quantum.MatH, []int{0}, 24},
		{quantum.MatCX, []int{0, 1}, 80},
	}
	f0 := runNoisy(t, 2, gates, 0, 0)
	if math.Abs(f0-1) > 1e-9 {
		t.Errorf("noiseless fidelity %g", f0)
	}
	if f1 := runNoisy(t, 2, gates, testT1, testT2); f1 >= f0 || f1 < 0.9 {
		t.Errorf("noisy fidelity %g outside expected band (below %g, above 0.9)", f1, f0)
	}
}

func TestLongerPulsesHurtMore(t *testing.T) {
	// The mechanism behind the paper's latency→fidelity story: the same
	// circuit with longer pulse durations must have lower fidelity.
	mk := func(scale float64) float64 {
		return runNoisy(t, 3, []timedGate{
			{quantum.MatH, []int{0}, 24 * scale},
			{quantum.MatCX, []int{0, 1}, 80 * scale},
			{quantum.MatCX, []int{1, 2}, 80 * scale},
		}, testT1, testT2)
	}
	short, long := mk(1), mk(5)
	if long >= short {
		t.Errorf("5× longer pulses should hurt fidelity: %g vs %g", long, short)
	}
}

func TestPhysicalityT2CappedByT1(t *testing.T) {
	// With T2 = 2·T1 exactly, pure dephasing vanishes: decay is amplitude
	// damping alone. T2 < 2·T1 adds dephasing on top.
	decayed := func(t2 float64) *Density {
		d, _ := NewDensity(1)
		d.ApplyUnitary(quantum.MatH, []int{0})
		d.Decay(100, 500, t2)
		return d
	}
	dampOnly := decayed(0)
	if got := decayed(1000); !got.Rho.Equal(dampOnly.Rho, 0) {
		t.Errorf("T2 = 2T1 should add no dephasing: ρ %v vs damping-only %v", got.Rho.Data, dampOnly.Rho.Data)
	}
	if got := decayed(400); math.Abs(real(got.Rho.At(0, 1))) >= math.Abs(real(dampOnly.Rho.At(0, 1))) {
		t.Error("dephasing expected for T2 < 2T1")
	}
}

func TestDensityApplyErrors(t *testing.T) {
	d, _ := NewDensity(2)
	if err := d.ApplyUnitary(quantum.MatCX, []int{0}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := d.ApplyUnitary(quantum.MatCX, []int{0, 0}); err == nil {
		t.Error("duplicate wires should fail")
	}
	if err := d.ApplyUnitary(quantum.MatH, []int{2}); err == nil {
		t.Error("out-of-range wire should fail")
	}
	psi, _ := NewState(3)
	if _, err := d.Fidelity(psi); err == nil {
		t.Error("qubit-count mismatch should fail")
	}
}

func BenchmarkDensity6Qubits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := NewDensity(6)
		if err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			if err := d.ApplyUnitary(quantum.MatCX, []int{q, q + 1}); err != nil {
				b.Fatal(err)
			}
			d.Decay(80, testT1, testT2)
		}
	}
}
