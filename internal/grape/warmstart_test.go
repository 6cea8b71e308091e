package grape

import (
	"context"
	"math/rand"
	"testing"

	"paqoc/internal/hamiltonian"
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
// to panic or mis-seed: nil schedule, channel/amps length mismatch, and
// an empty channel.
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

// TestMinimumTimeProbeReuse checks that consecutive duration probes
// actually reuse cached propagators (the grape.probe_prop_reuse counter)
// and still produce a target-reaching schedule.
func TestMinimumTimeProbeReuse(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	sys := hamiltonian.XYTransmon(1, nil)
	opts := DefaultOptions()
	opts.MaxIter = 60
	sched, _, fid, err := MinimumTimeCtx(ctx, sys, quantum.MatX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fid < opts.TargetFidelity {
		t.Fatalf("fidelity %v below target", fid)
	}
	if sched == nil || len(sched.Amps) == 0 {
		t.Fatal("no schedule")
	}
	if n := reg.Counter("grape.probe_prop_reuse").Value(); n == 0 {
		t.Error("no propagators were reused across duration probes")
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
