package grape

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/latency"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
)

// probe is one finished grape.binsearch.probe span.
type probe struct {
	slices int
	fid    float64
}

// spanAttr returns the span's value for key, or nil.
func spanAttr(s obs.SpanRecord, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// probesOf lists the duration probes on tr in the order they ran.
func probesOf(tr *obs.Tracer) []probe {
	var out []probe
	for _, s := range tr.Spans() {
		if s.Name == "grape.binsearch.probe" {
			out = append(out, probe{slices: spanAttr(s, "slices").(int), fid: spanAttr(s, "fidelity").(float64)})
		}
	}
	return out
}

// TestMinimumTimeDescendsToFirstMiss pins the search's shape from its
// probe spans, for a 1-, 2- and 3-qubit target each started below, at and
// above its answer: the bracket doubles from the prior through misses to
// one hit; after it every probe is one slice below the one before, every
// probe but the last hits, and the answer is the last hit. Either the
// probe one slice below the answer missed, or the answer is the lowest
// slice count the bracket left open.
func TestMinimumTimeDescendsToFirstMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine minimum-time searches")
	}
	cases := []struct {
		name   string
		sys    *hamiltonian.System
		target *linalg.Matrix
	}{
		{"x", hamiltonian.XYTransmon(1, nil), quantum.MatX},
		{"cx", hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2)), quantum.MatCX},
		{"cx01.cx12", hamiltonian.XYTransmon(3, hamiltonian.LinearChain(3)),
			quantum.Embed(quantum.MatCX, []int{1, 2}, 3).Mul(quantum.Embed(quantum.MatCX, []int{0, 1}, 3))},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.MaxIter = 120
		opts.TargetFidelity = 0.99
		// A cold search can stop well above the answer a prior finds, so
		// the exact prior is the answer of a search started at the cold
		// search's answer.
		exact := 0
		for range 2 {
			hinted := opts
			hinted.HintSlices = exact
			_, lat, _, err := MinimumTimeCtx(context.Background(), tc.sys, tc.target, hinted)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			exact = int(lat / sliceDt)
		}
		for _, prior := range []struct {
			name string
			hint int
		}{{"low", exact / 2}, {"exact", exact}, {"high", exact + exact/2}} {
			tr := obs.NewTracer()
			ctx := obs.WithTracer(context.Background(), tr)
			hinted := opts
			hinted.HintSlices = prior.hint
			_, lat, fid, err := MinimumTimeCtx(ctx, tc.sys, tc.target, hinted)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, prior.name, err)
			}
			probes := probesOf(tr)
			answer := int(lat / sliceDt)
			t.Logf("%s/%s: hint %d, answer %d slices (fid %.4f), probes %v", tc.name, prior.name, prior.hint, answer, fid, probes)
			hit := func(p probe) bool { return p.fid >= hinted.TargetFidelity }

			// Bracket: from the clamped hint, doubling through misses.
			lo := minSlices
			first := 0
			want := max(minSlices, prior.hint)
			for ; !hit(probes[first]); first++ {
				if probes[first].slices != want {
					t.Fatalf("%s/%s: bracket probe %d at %d slices, want %d", tc.name, prior.name, first, probes[first].slices, want)
				}
				lo = probes[first].slices + 1
				want = min(2*want, hinted.MaxSlices)
			}
			if probes[first].slices != want {
				t.Fatalf("%s/%s: first hit at %d slices, want %d", tc.name, prior.name, probes[first].slices, want)
			}

			// Descent: one slice per probe; only the last may miss.
			last := probes[first]
			for i := first + 1; i < len(probes); i++ {
				p := probes[i]
				if p.slices != probes[i-1].slices-1 {
					t.Fatalf("%s/%s: probe %d at %d slices after %d, want one slice fewer", tc.name, prior.name, i, p.slices, probes[i-1].slices)
				}
				if hit(p) {
					last = p
				} else if i != len(probes)-1 {
					t.Fatalf("%s/%s: probe %d missed but the search went on", tc.name, prior.name, i)
				}
			}
			if answer != last.slices || fid != last.fid {
				t.Fatalf("%s/%s: answer %d slices (fid %v), want the last hit %d (fid %v)", tc.name, prior.name, answer, fid, last.slices, last.fid)
			}
			end := probes[len(probes)-1]
			if !(end.slices == answer-1 && !hit(end)) && answer != lo {
				t.Fatalf("%s/%s: answer %d is neither above a miss nor the bracket's lower end %d", tc.name, prior.name, answer, lo)
			}
		}
	}
}

// TestGeneratorStartsAtModelPrior: a cold Generator search starts at the
// analytical model's estimate in slices, a near miss in the pulse DB
// overrides it with its own length unless every sample is zero, and
// neither prior counts as a ranking probe.
func TestGeneratorStartsAtModelPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three minimum-time searches")
	}
	hintOf := func(tr *obs.Tracer) any {
		for _, s := range tr.Spans() {
			if s.Name == "grape.binsearch" {
				return spanAttr(s, "hint")
			}
		}
		return nil
	}
	cx := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}})
	est, err := (&latency.Model{}).Estimate(cx)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(est / sliceDt))

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	ctx := obs.WithTracer(obs.WithMetrics(context.Background(), reg), tr)
	if _, err := NewGenerator(DefaultOptions()).GenerateCtx(ctx, cx, 0.99); err != nil {
		t.Fatal(err)
	}
	if got := hintOf(tr); got != want {
		t.Errorf("cold CX search hint = %v, want ceil(%.2f/%v) = %d", got, est, sliceDt, want)
	}
	if n := reg.Counter("latency.model.probes").Value(); n != 0 {
		t.Errorf("the prior counted %d ranking probes, want 0", n)
	}

	// A near miss: CX after a small Z rotation, stored with a 31-slice
	// schedule whose samples amp draws for each control bound, next to a
	// fresh search for CX. It returns the search's hint and warm starts.
	near := pulse.NewCustomGate([]circuit.Gate{
		{Name: "rz", Params: []float64{0.05}, Qubits: []int{0}},
		{Name: "cx", Qubits: []int{0, 1}},
	})
	u, err := near.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	const nearSlices = 31
	nearMiss := func(amp func(bound float64) float64) (any, int64) {
		sched := &pulse.Schedule{SliceDt: sliceDt}
		for _, c := range hamiltonian.XYTransmon(2, hamiltonian.AllPairs(2)).Controls {
			amps := make([]float64, nearSlices)
			for j := range amps {
				amps[j] = amp(c.Bound)
			}
			sched.Channels = append(sched.Channels, c.Name)
			sched.Amps = append(sched.Amps, amps)
		}
		gen := NewGenerator(DefaultOptions())
		gen.DB.Store(u, &pulse.Generated{Schedule: sched, Latency: nearSlices * sliceDt, Fidelity: 0.99, Error: 0.01})
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		ctx := obs.WithTracer(obs.WithMetrics(context.Background(), reg), tr)
		if _, err := gen.GenerateCtx(ctx, cx, 0.99); err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("latency.model.probes").Value(); n != 0 {
			t.Errorf("the priors counted %d ranking probes, want 0", n)
		}
		return hintOf(tr), reg.Counter("grape.warm_starts").Value()
	}

	// Small random amplitudes, of a length the model would not predict:
	// the near miss is the first probe's guess and its length the prior.
	rng := rand.New(rand.NewSource(5))
	hint, warm := nearMiss(func(bound float64) float64 { return 0.2 * bound * (2*rng.Float64() - 1) })
	if hint != nearSlices {
		t.Errorf("warm CX search hint = %v, want the near miss's %d slices", hint, nearSlices)
	}
	if warm != 1 {
		t.Errorf("grape.warm_starts = %d, want 1", warm)
	}

	// All-zero amplitudes sit on a saddle of the CX fidelity, which every
	// probe seeded from them would inherit: the near miss is ignored and
	// the search starts cold at the model's prior.
	hint, warm = nearMiss(func(float64) float64 { return 0 })
	if hint != want {
		t.Errorf("CX search next to an all-zero near miss: hint = %v, want the cold prior %d", hint, want)
	}
	if warm != 0 {
		t.Errorf("an all-zero near miss counted %d warm starts, want 0", warm)
	}
}

// BenchmarkGenerateCold is the layer row of the minimum-time search: one
// Generator.GenerateCtx per op at 0.99 on the default device profile and a
// fresh pulse DB, so every op runs a cold search from the model's prior.
// It reports GRAPE iterations, duration probes and iterations spent in
// missed probes per op.
func BenchmarkGenerateCold(b *testing.B) {
	prof := device.Default()
	for _, bc := range []struct {
		name  string
		gates []circuit.Gate
	}{
		{"cx", []circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}}},
		{"ccx", []circuit.Gate{{Name: "ccx", Qubits: []int{0, 1, 2}}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cg := pulse.NewCustomGate(bc.gates)
			reg := obs.NewRegistry()
			ctx := obs.WithMetrics(context.Background(), reg)
			for i := 0; i < b.N; i++ {
				gen := NewGenerator(DefaultOptions())
				gen.Topo = prof.Topology()
				gen.System = prof.SystemBuilder()
				if _, err := gen.GenerateCtx(ctx, cg, 0.99); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(reg.Counter("grape.iterations").Value())/n, "iters/op")
			b.ReportMetric(float64(reg.Counter("grape.binsearch.probes").Value())/n, "probes/op")
			b.ReportMetric(float64(reg.Counter("grape.binsearch.missed_iterations").Value())/n, "missed_iters/op")
		})
	}
}
