package grape

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
)

// TestAlignGuessProperty is the resampler property test: for random
// channel permutations and random (possibly ragged) per-channel sample
// counts, alignGuess must never panic, must seed each control from the
// channel with *its* name (not its index), and must reject schedules
// missing any control channel.
func TestAlignGuessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	systems := []*hamiltonian.System{
		hamiltonian.XYTransmon(1, nil),
		hamiltonian.XYTransmon(2, [][2]int{{0, 1}}),
		hamiltonian.XYTransmon(3, hamiltonian.LinearChain(3)),
	}
	for trial := 0; trial < 200; trial++ {
		sys := systems[rng.Intn(len(systems))]
		nc := len(sys.Controls)

		// Build a schedule over the system's channels in a random order,
		// with random per-channel sample counts, marking each sample with
		// its channel index so seeding provenance is checkable.
		perm := rng.Perm(nc)
		sched := &pulse.Schedule{SliceDt: 4}
		for _, k := range perm {
			n := 1 + rng.Intn(24)
			samples := make([]float64, n)
			for j := range samples {
				samples[j] = float64(k) + float64(j)/1000
			}
			sched.Channels = append(sched.Channels, sys.Controls[k].Name)
			sched.Amps = append(sched.Amps, samples)
		}

		guess := alignGuess(sys, sched)
		if guess == nil {
			t.Fatalf("trial %d: alignGuess rejected a complete schedule", trial)
		}
		for k := range guess {
			if len(guess[k]) == 0 {
				t.Fatalf("trial %d: control %d got empty samples", trial, k)
			}
			// Marker check: every sample of control k must come from the
			// channel *named* like control k, regardless of storage order.
			if got := int(guess[k][0]); got != k {
				t.Fatalf("trial %d: control %d seeded from channel %d", trial, k, got)
			}
		}

		// Dropping any one channel must reject the whole guess.
		i := rng.Intn(nc)
		incomplete := &pulse.Schedule{
			SliceDt:  4,
			Channels: append(append([]string(nil), sched.Channels[:i]...), sched.Channels[i+1:]...),
			Amps:     append(append([][]float64(nil), sched.Amps[:i]...), sched.Amps[i+1:]...),
		}
		if alignGuess(sys, incomplete) != nil {
			t.Fatalf("trial %d: alignGuess accepted a schedule missing %q", trial, sched.Channels[i])
		}
	}
}

// TestAlignGuessRejectsMalformed covers the degenerate shapes that used
// to panic or mis-seed: nil schedule, channel/amps length mismatch, an
// empty channel, and all-zero samples (for CX a stationary point of the
// fidelity, which stalls every probe seeded from it).
func TestAlignGuessRejectsMalformed(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	if alignGuess(sys, nil) != nil {
		t.Error("nil schedule accepted")
	}
	if alignGuess(sys, &pulse.Schedule{Channels: []string{"d0.x"}, Amps: [][]float64{{1}, {2}}}) != nil {
		t.Error("channel/amps length mismatch accepted")
	}
	if alignGuess(sys, &pulse.Schedule{
		Channels: []string{"d0.x", "d0.y"},
		Amps:     [][]float64{{1, 2}, {}},
	}) != nil {
		t.Error("empty channel accepted")
	}
	if alignGuess(sys, &pulse.Schedule{
		Channels: []string{"d0.x", "d0.y"},
		Amps:     [][]float64{{0, 0, 0}, {math.Copysign(0, -1), 0}},
	}) != nil {
		t.Error("all-zero schedule accepted")
	}
}

// TestWarmStartRaggedScheduleNoPanic reproduces the singleflight-leader
// panic: a stored schedule whose channels have unequal sample counts
// (possible after a snapshot merge) used to index out of range inside
// optimize. Ragged but complete schedules must now warm-start per
// channel; the optimization must simply run.
func TestWarmStartRaggedScheduleNoPanic(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	guess := &pulse.Schedule{
		SliceDt:  4,
		Channels: []string{"d0.x", "d0.y"},
		Amps:     [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, {0.1, 0.2, 0.3}},
	}
	opts := Options{MaxIter: 20, Seed: 1, TargetFidelity: 2, InitialGuess: guess}
	res := OptimizeCtx(context.Background(), sys, quantum.MatX, 8, opts)
	if res == nil || res.Amps == nil {
		t.Fatal("ragged warm start produced no result")
	}
}

// TestWarmStartChannelMismatchSkipped pins the channel-identity bugfix:
// a guess whose channel *count* matches but whose names belong to a
// different system must be ignored (cold start), not applied by index.
func TestWarmStartChannelMismatchSkipped(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil) // channels d0.x, d0.y
	wrong := &pulse.Schedule{
		SliceDt:  4,
		Channels: []string{"d3.x", "d3.y"}, // right count, wrong names
		Amps:     [][]float64{{9, 9, 9, 9}, {-9, -9, -9, -9}},
	}
	opts := Options{MaxIter: 15, Seed: 5, TargetFidelity: 2}
	cold := OptimizeCtx(context.Background(), sys, quantum.MatX, 8, opts)
	opts.InitialGuess = wrong
	got := OptimizeCtx(context.Background(), sys, quantum.MatX, 8, opts)
	if got.Fidelity != cold.Fidelity || got.Iters != cold.Iters {
		t.Fatalf("mismatched guess was not skipped: (fid %v, iters %d) vs cold (fid %v, iters %d)",
			got.Fidelity, got.Iters, cold.Fidelity, cold.Iters)
	}
}

// TestMinimumTimeProbeReuse pins the bits of three minimum-time searches
// in which every probe after the first starts from its predecessor's best
// amplitudes: X on one qubit, CX on two coupled qubits, and X from an
// InitialGuess, which only the first probe uses. Latency, iterations and
// probes were captured while the arena still carried each probe's
// amplitudes and propagators to the next, and have not moved since. The
// fidelity bits and amplitude digests were re-captured when the slice
// exponential moved from the Taylor loop to the Paterson–Stockmeyer
// polynomial, and again when the complex product became fused
// multiply-adds; both reach only low-order bits (EXPERIMENTS.md,
// "Paterson–Stockmeyer exponential" and "FMA products").
func TestMinimumTimeProbeReuse(t *testing.T) {
	x := DefaultOptions()
	x.MaxIter = 60

	cx := DefaultOptions()
	cx.MaxIter = 120
	cx.TargetFidelity = 0.99
	cx.HintSlices = 20

	sys1 := hamiltonian.XYTransmon(1, nil)
	guessed := x
	guessed.HintSlices = 12
	guessed.InitialGuess = &pulse.Schedule{SliceDt: sliceDt}
	for k, c := range sys1.Controls {
		amps := make([]float64, 9)
		for j := range amps {
			amps[j] = 0.5 * c.Bound * math.Sin(float64(j+1)*float64(k+2)/3)
		}
		guessed.InitialGuess.Channels = append(guessed.InitialGuess.Channels, c.Name)
		guessed.InitialGuess.Amps = append(guessed.InitialGuess.Amps, amps)
	}

	for _, tc := range []struct {
		name    string
		sys     *hamiltonian.System
		target  *linalg.Matrix
		opts    Options
		latency float64
		fidBits uint64
		iters   int64
		probes  int64
		amps    string // SHA-256 over every amplitude's bits, little-endian
	}{
		{"x", sys1, quantum.MatX, x, 24, 0x3feffdcb8ec7a468, 220, 6,
			"c1a7a360f4627bb6ec9d3db43a3346f0a7cbcae4db462227660d216aadf89282"},
		{"cx", hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2)), quantum.MatCX, cx, 84, 0x3fefaf2691770b48, 424, 21,
			"75cb9685550dc740fa0c243061442a69bdc8276456a52aa5313dcbd3232e9d58"},
		{"x-guess", sys1, quantum.MatX, guessed, 24, 0x3feff96a4459293c, 199, 8,
			"0e1600c93c18518ccd538d1da21306f978219840d788cb8ceb0e63c61f545330"},
	} {
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		sched, lat, fid, err := MinimumTimeCtx(ctx, tc.sys, tc.target, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, ch := range sched.Amps {
			for _, a := range ch {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
				h.Write(buf[:])
			}
		}
		iters := reg.Counter("grape.iterations").Value()
		probes := reg.Counter("grape.binsearch.probes").Value()
		if lat != tc.latency || math.Float64bits(fid) != tc.fidBits || iters != tc.iters || probes != tc.probes {
			t.Errorf("%s: latency %v, fidelity bits %#x, %d iterations, %d probes; want %v, %#x, %d, %d",
				tc.name, lat, math.Float64bits(fid), iters, probes, tc.latency, tc.fidBits, tc.iters, tc.probes)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.amps {
			t.Errorf("%s: amplitude digest %s, want %s", tc.name, got, tc.amps)
		}
	}
}

// TestHintSlicesSavesProbes: a duration prior equal to the known answer
// must reach the same minimal slice count with fewer probes.
func TestHintSlicesSavesProbes(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	base := DefaultOptions()
	base.MaxIter = 60

	run := func(opts Options) (float64, int64) {
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		_, lat, _, err := MinimumTimeCtx(ctx, sys, quantum.MatX, opts)
		if err != nil {
			t.Fatal(err)
		}
		return lat, reg.Counter("grape.binsearch.probes").Value()
	}

	coldLat, coldProbes := run(base)
	hinted := base
	hinted.HintSlices = int(coldLat / sliceDt)
	hintLat, hintProbes := run(hinted)
	if hintLat != coldLat {
		t.Fatalf("hinted search changed the answer: %v vs %v", hintLat, coldLat)
	}
	if hintProbes >= coldProbes {
		t.Errorf("hint saved no probes: %d vs %d", hintProbes, coldProbes)
	}

	// A hint outside the bracket must clamp, not break the search.
	clamped := base
	clamped.HintSlices = clamped.MaxSlices * 4
	if lat, _ := run(clamped); lat != coldLat {
		t.Errorf("oversized hint changed the answer: %v vs %v", lat, coldLat)
	}
}

// scheduleUnitary replays sched on sys: the unitary its slices realize.
func scheduleUnitary(sys *hamiltonian.System, sched *pulse.Schedule) *linalg.Matrix {
	u := linalg.Identity(sys.Dim)
	amps := make([]float64, len(sys.Controls))
	for j := 0; j < sched.NumSlices(); j++ {
		for k := range amps {
			amps[k] = sched.Amps[k][j]
		}
		u = sys.Propagator(amps, sched.SliceDt).Mul(u)
	}
	return u
}

// assertWithinBounds fails when any sample of sched lies outside its
// control's bound on sys.
func assertWithinBounds(t *testing.T, name string, sys *hamiltonian.System, sched *pulse.Schedule) {
	t.Helper()
	for k, c := range sys.Controls {
		for j, a := range sched.Amps[k] {
			if math.Abs(a) > c.Bound {
				t.Fatalf("%s: %s sample %d is %v, outside its bound ±%v", name, c.Name, j, a, c.Bound)
			}
		}
	}
}

// TestWarmStartClippedToBounds: a warm start outside the control bounds
// is clipped as it is loaded, so no search returns a sample beyond its
// bound, even when the unclipped guess already realizes the target.
func TestWarmStartClippedToBounds(t *testing.T) {
	// One qubit: a 2-slice schedule at 3× each bound, handed in as the
	// first probe's guess with its own unitary as the target.
	sys1 := hamiltonian.XYTransmon(1, nil)
	wide := &pulse.Schedule{SliceDt: sliceDt}
	for _, c := range sys1.Controls {
		wide.Channels = append(wide.Channels, c.Name)
		wide.Amps = append(wide.Amps, []float64{3 * c.Bound, 3 * c.Bound})
	}
	opts := DefaultOptions()
	opts.InitialGuess = wide
	opts.HintSlices = 2
	sched, _, _, err := MinimumTimeCtx(context.Background(), sys1, scheduleUnitary(sys1, wide), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertWithinBounds(t, "1q guess", sys1, sched)
	for k, amps := range wide.Amps {
		for _, a := range amps {
			if a != 3*sys1.Controls[k].Bound {
				t.Fatalf("the search wrote %v into the guess", a)
			}
		}
	}

	// Two qubits through the Generator: a CX schedule optimized under 3×
	// the bounds, stored as a near miss of CX (keyed by CX after a small
	// Z rotation), seeds a fresh CX search.
	sys2 := hamiltonian.XYTransmon(2, hamiltonian.AllPairs(2))
	loose := hamiltonian.XYTransmon(2, hamiltonian.AllPairs(2))
	for k := range loose.Controls {
		loose.Controls[k].Bound *= 3
	}
	cxOpts := DefaultOptions()
	cxOpts.TargetFidelity = 0.999
	fast, lat, _, err := MinimumTimeCtx(context.Background(), loose, quantum.MatCX, cxOpts)
	if err != nil {
		t.Fatal(err)
	}
	beyond := false
	for k, c := range sys2.Controls {
		for _, a := range fast.Amps[k] {
			beyond = beyond || math.Abs(a) > c.Bound
		}
	}
	if !beyond {
		t.Fatal("the 3×-bound CX schedule stays inside the real bounds; the case tests nothing")
	}
	near, err := pulse.NewCustomGate([]circuit.Gate{
		{Name: "rz", Params: []float64{0.05}, Qubits: []int{0}},
		{Name: "cx", Qubits: []int{0, 1}},
	}).Unitary()
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(DefaultOptions())
	gen.DB.Store(near, &pulse.Generated{Schedule: fast, Latency: lat, Fidelity: 0.999, Error: 0.001})
	reg := obs.NewRegistry()
	got, err := gen.GenerateCtx(obs.WithMetrics(context.Background(), reg),
		pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}}), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("grape.warm_starts").Value(); n != 1 {
		t.Fatalf("grape.warm_starts = %d, want the near miss as the guess", n)
	}
	assertWithinBounds(t, "2q near miss", sys2, got.Schedule)
}
