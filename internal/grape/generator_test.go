package grape

import (
	"context"
	"errors"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
)

// fullSchedule builds a schedule carrying every control channel of
// XYTransmon(2, pairs), with per-channel distinguishable samples.
func fullSchedule(pairs [][2]int) *pulse.Schedule {
	sys := hamiltonian.XYTransmon(2, pairs)
	s := &pulse.Schedule{SliceDt: 1}
	for k, c := range sys.Controls {
		s.Channels = append(s.Channels, c.Name)
		s.Amps = append(s.Amps, []float64{float64(k)})
	}
	return s
}

// TestRemapScheduleSwapsChannels: under the swap permutation, the remapped
// schedule plays stored qubit 1's drives on qubit 0 and vice versa, and
// the symmetric coupling channel maps onto itself.
func TestRemapScheduleSwapsChannels(t *testing.T) {
	pairs := [][2]int{{0, 1}}
	src := fullSchedule(pairs)
	out := remapSchedule(src, []int{1, 0}, pairs)
	if out == nil {
		t.Fatal("remap of a complete schedule returned nil")
	}
	want := map[string]string{
		"d0.x":    "d1.x",
		"d0.y":    "d1.y",
		"d1.x":    "d0.x",
		"d1.y":    "d0.y",
		"c0.1.xy": "c0.1.xy",
	}
	srcAmp := map[string]float64{}
	for k, name := range src.Channels {
		srcAmp[name] = src.Amps[k][0]
	}
	for k, name := range out.Channels {
		if got, exp := out.Amps[k][0], srcAmp[want[name]]; got != exp {
			t.Errorf("channel %s carries amp %v, want %v (from stored %s)", name, got, exp, want[name])
		}
	}
}

// TestRemapScheduleMissingChannel: a stored schedule lacking a channel the
// permuted gate needs (coupling graphs differ between the two contexts)
// cannot be reused — remap must return nil, never a partial schedule.
func TestRemapScheduleMissingChannel(t *testing.T) {
	pairs := [][2]int{{0, 1}}
	src := fullSchedule(pairs)
	src.Channels = src.Channels[:len(src.Channels)-1] // drop c0.1.xy
	src.Amps = src.Amps[:len(src.Amps)-1]
	if out := remapSchedule(src, []int{1, 0}, pairs); out != nil {
		t.Fatalf("remap with a missing source channel = %+v, want nil", out)
	}
	if out := remapSchedule(nil, []int{1, 0}, pairs); out != nil {
		t.Fatal("remap of a nil schedule should be nil")
	}
	// Unknown channel name in the target system also refuses.
	weird := &pulse.Schedule{SliceDt: 1, Channels: []string{"q0.flux"}, Amps: [][]float64{{1}}}
	if out := remapSchedule(weird, []int{0}, nil); out != nil {
		t.Fatal("remap onto an unrecognized channel name should be nil")
	}
}

// TestPermutedHitMissingChannelRegenerates drives the fallback end to end:
// a permuted DB hit whose stored schedule cannot be remapped (a required
// channel is absent) must fall through to a fresh optimization under the
// gate's own canonical key — served complete, not reused broken.
func TestPermutedHitMissingChannelRegenerates(t *testing.T) {
	db := pulse.NewDB()
	gen := &Generator{Opts: DefaultOptions(), DB: db}

	// Plant an entry for cx(0,1) whose schedule only carries d0.x: the
	// permuted lookup for cx(1,0) will find it, and remapping will fail.
	cx01 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}})
	u01, err := cx01.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	db.Store(u01, &pulse.Generated{
		Schedule: &pulse.Schedule{SliceDt: 1, Channels: []string{"d0.x"}, Amps: [][]float64{{0.25}}},
		Latency:  5, Fidelity: 0.9999, Error: 1e-4,
	})

	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	cx10 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{1, 0}}})
	got, err := gen.GenerateCtx(ctx, cx10, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("unremappable permuted hit must regenerate, not report a cache hit")
	}
	if n := reg.Counter("grape.generated").Value(); n != 1 {
		t.Errorf("grape.generated = %d, want exactly 1 fresh optimization", n)
	}
	want := hamiltonian.XYTransmon(2, hamiltonian.AllPairs(2))
	if len(got.Schedule.Channels) != len(want.Controls) {
		t.Errorf("regenerated schedule has %d channels, want the full %d", len(got.Schedule.Channels), len(want.Controls))
	}

	// The regeneration was stored under cx(1,0)'s own canonical key: the
	// same gate now hits exactly, without touching the planted entry.
	again, err := gen.GenerateCtx(ctx, cx10, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("second cx(1,0) should be an exact DB hit")
	}
	if n := reg.Counter("grape.generated").Value(); n != 1 {
		t.Errorf("grape.generated = %d after exact hit, want still 1", n)
	}
}

// TestUnreachableMergedBlockReturnsSentinel: serve_replay's novel18
// request merges a SWAP-class block on xy-grid-2x2. Given a duration
// budget it cannot meet, the Generator returns pulse.ErrFidelityUnreachable,
// so the paqoc emitter can split the block instead of failing the compile.
// At the default budget the search realizes it, and its schedule replays
// to the target on the device's own system.
func TestUnreachableMergedBlockReturnsSentinel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full minimum-time search")
	}
	prof, err := device.Lookup("xy-grid-2x2")
	if err != nil {
		t.Fatal(err)
	}
	newGen := func(opts Options) *Generator {
		gen := NewGenerator(opts)
		gen.Topo = prof.Topology()
		gen.System = prof.SystemBuilder()
		return gen
	}
	c := circuit.New(2)
	c.Add("sx", 1)
	c.AddParam("rz", []float64{2.17891}, 1)
	c.Add("sx", 1)
	c.AddParam("rz", []float64{3.75931}, 1)
	c.AddParam("rz", []float64{2.41579}, 1)
	c.Add("cx", 0, 1)
	c.Add("cx", 1, 0)
	c.Add("cx", 0, 1)
	block := pulse.NewCustomGate(c.Gates)
	const target = 0.99

	tight := DefaultOptions()
	tight.MaxSlices = 16
	_, err = newGen(tight).GenerateCtx(context.Background(), block, target)
	if !errors.Is(err, pulse.ErrFidelityUnreachable) {
		t.Fatalf("at %d slices: error %v, want pulse.ErrFidelityUnreachable in its chain", tight.MaxSlices, err)
	}

	gen := newGen(DefaultOptions())
	got, err := gen.GenerateCtx(context.Background(), block, target)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	sys := prof.System(block.NumQubits(), Couplings(gen.Topo, block))
	realized, err := pulsesim.EvolveCtx(context.Background(), sys, got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	u, err := block.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	if f := pulsesim.GateFidelity(u, realized); f < target {
		t.Errorf("replayed fidelity %.6f below %v (GRAPE reported %.6f at %v dt)", f, target, got.Fidelity, got.Latency)
	}
}
