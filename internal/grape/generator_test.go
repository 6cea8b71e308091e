package grape

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// remapScheduleReference is remapSchedule before it derived channel names
// from (n, pairs): it builds the whole target system, parses each control
// name with fmt.Sscanf and looks the stored channel up in a map.
func remapScheduleReference(src *pulse.Schedule, perm []int, pairs [][2]int) *pulse.Schedule {
	if src == nil {
		return nil
	}
	byName := make(map[string][]float64, len(src.Channels))
	for k, name := range src.Channels {
		byName[name] = src.Amps[k]
	}
	n := len(perm)
	sys := hamiltonian.XYTransmon(n, pairs)
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	out := &pulse.Schedule{SliceDt: src.SliceDt}
	for _, c := range sys.Controls {
		var srcName string
		var q, a, b int
		switch {
		case scanChannel(c.Name, "d%d.x", &q):
			srcName = fmt.Sprintf("d%d.x", inv[q])
		case scanChannel(c.Name, "d%d.y", &q):
			srcName = fmt.Sprintf("d%d.y", inv[q])
		case scanChannel2(c.Name, &a, &b):
			sa, sb := inv[a], inv[b]
			if sa > sb {
				sa, sb = sb, sa
			}
			srcName = fmt.Sprintf("c%d.%d.xy", sa, sb)
		default:
			return nil
		}
		samples, ok := byName[srcName]
		if !ok {
			return nil
		}
		out.Channels = append(out.Channels, c.Name)
		out.Amps = append(out.Amps, append([]float64(nil), samples...))
	}
	return out
}

func scanChannel(name, format string, q *int) bool {
	var rest string
	k, err := fmt.Sscanf(name, format+"%s", q, &rest)
	if err == nil && k >= 1 && rest == "" {
		return true
	}
	k, err = fmt.Sscanf(name, format, q)
	return err == nil && k == 1 && fmt.Sprintf(format, *q) == name
}

func scanChannel2(name string, a, b *int) bool {
	k, err := fmt.Sscanf(name, "c%d.%d.xy", a, b)
	return err == nil && k == 2 && fmt.Sprintf("c%d.%d.xy", *a, *b) == name
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestRemapScheduleMatchesReference pins remapSchedule to the code it
// replaced for every permutation of 1–4 qubits, for every pairing of a
// stored schedule's and the new gate's couplings among chain, reversed
// chain and all pairs, and with each stored channel dropped in turn:
// the same channels in the same order with the same samples, or nil on
// both sides.
func TestRemapScheduleMatchesReference(t *testing.T) {
	compared, refused := 0, 0
	for n := 1; n <= 4; n++ {
		var reversed [][2]int
		for _, p := range hamiltonian.LinearChain(n) {
			reversed = append(reversed, [2]int{p[1], p[0]})
		}
		couplings := [][][2]int{hamiltonian.LinearChain(n), reversed, hamiltonian.AllPairs(n)}
		for _, stored := range couplings {
			sys := hamiltonian.XYTransmon(n, stored)
			full := &pulse.Schedule{SliceDt: 1}
			for k, c := range sys.Controls {
				full.Channels = append(full.Channels, c.Name)
				full.Amps = append(full.Amps, []float64{float64(k), -float64(k) / 3})
			}
			srcs := []*pulse.Schedule{full}
			for drop := range full.Channels {
				srcs = append(srcs, &pulse.Schedule{
					SliceDt:  1,
					Channels: append(append([]string(nil), full.Channels[:drop]...), full.Channels[drop+1:]...),
					Amps:     append(append([][]float64(nil), full.Amps[:drop]...), full.Amps[drop+1:]...),
				})
			}
			for _, pairs := range couplings {
				for _, perm := range permutations(n) {
					for _, src := range srcs {
						want := remapScheduleReference(src, perm, pairs)
						got := remapSchedule(src, perm, pairs)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("n=%d stored %v, pairs %v, perm %v, channels %v: got %+v, reference %+v",
								n, stored, pairs, perm, src.Channels, got, want)
						}
						if want == nil {
							refused++
						} else {
							compared++
						}
					}
				}
			}
		}
	}
	if compared == 0 || refused == 0 {
		t.Fatalf("%d remaps compared, %d refused: want both", compared, refused)
	}
	t.Logf("%d remaps equal to the reference, %d refused on both sides", compared, refused)
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
