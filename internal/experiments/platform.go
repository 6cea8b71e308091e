// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): one runner per artifact, each returning structured rows
// and able to print the paper-style series. cmd/paqoc-bench exposes them on
// the command line; bench_test.go at the repository root wraps each in a
// testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"paqoc/internal/accqoc"
	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/engine"
	"paqoc/internal/latency"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/paqoc"
	"paqoc/internal/route"
	"paqoc/internal/topology"
	"paqoc/internal/transpile"
)

// Platform is the evaluation platform of §VI-c: a 5×5 grid with XY
// interaction, Sabre routing, and fidelity target 0.999.
type Platform struct {
	Topo      *topology.Topology
	RouteOpts route.Options
	Fidelity  float64
	// Profile is the device backend the platform targets: its control
	// bounds, Hamiltonian, and coherence times. PlatformFor always sets it.
	Profile *device.Profile
	// Obs optionally threads observability (internal/obs) through every
	// compiled method; nil keeps the sweeps uninstrumented.
	Obs *obs.Obs
	// Workers bounds the per-benchmark worker pool in RunAll: each
	// benchmark's route-and-compile-all-methods unit runs as one task.
	// 0 or 1 sweeps serially in spec order. Within-benchmark compilation
	// stays serial either way, so per-method compile costs remain
	// comparable across worker counts.
	Workers int
}

// DefaultPlatform mirrors the paper's setup. The fidelity target of 0.99
// reproduces the per-gate error regime behind Table II's absolute
// success probabilities (the paper tunes fidelity so circuit ESP beats the
// baseline rather than pinning a single value).
func DefaultPlatform() *Platform {
	return PlatformFor(device.Default())
}

// PlatformFor targets the evaluation harness at an arbitrary device
// profile: its topology drives routing and every compiled method estimates
// under its control bounds. PlatformFor(device.Default()) reproduces the
// paper's setup bit for bit.
func PlatformFor(prof *device.Profile) *Platform {
	return &Platform{
		Topo:      prof.Topology(),
		RouteOpts: route.DefaultOptions(),
		Fidelity:  0.99,
		Profile:   prof,
	}
}

// Physical lowers a logical benchmark onto the platform: decompose to the
// universal basis, Sabre-route, decompose inserted SWAPs.
func (p *Platform) Physical(spec bench.Spec) (*circuit.Circuit, error) {
	phys, _, err := transpile.ToPhysical(spec.Build(), p.Topo, p.RouteOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", spec.Name, err)
	}
	return phys, nil
}

// Methods in presentation order (Figs. 10–12).
var Methods = []string{"accqoc_n3d3", "accqoc_n3d5", "paqoc_m0", "paqoc_mtuned", "paqoc_minf"}

// MethodResult carries one method's metrics on one benchmark.
type MethodResult struct {
	Method       string
	Latency      float64 // critical-path latency, dt
	TotalLatency float64
	CompileCost  float64 // modelled pulse-generation seconds
	ESP          float64
	NumBlocks    int
	WallTime     time.Duration // measured end-to-end compile time
}

// RunMethods executes all five compared methods on a physical circuit.
// Every method gets a fresh pulse database so compile costs are
// independent, exactly as separate compiler invocations would be.
func (p *Platform) RunMethods(phys *circuit.Circuit) ([]MethodResult, error) {
	var out []MethodResult
	ctx := p.Obs.Attach(context.Background())

	for _, depth := range []int{3, 5} {
		gen := latency.NewModel()
		gen.Topo = p.Topo
		gen.Params = p.Profile.Params()
		// Permuted-qubit pulse reuse is a PAQOC contribution (§V-B); the
		// AccQOC baseline relies on exact and similarity matches only.
		gen.DB.DetectPermutations = false
		opts := accqoc.Options{MaxQubits: 3, Depth: depth, FidelityTarget: p.Fidelity}
		res, err := accqoc.CompileCtx(ctx, phys, gen, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, MethodResult{
			Method:       fmt.Sprintf("accqoc_n3d%d", depth),
			Latency:      res.Latency,
			TotalLatency: res.TotalLatency,
			CompileCost:  res.CompileCost,
			ESP:          res.ESP,
			NumBlocks:    res.NumBlocks,
			WallTime:     res.WallTime,
		})
	}

	for _, m := range []int{0, mTunedSentinel, paqoc.MInf} {
		cfg := paqoc.DefaultConfig()
		cfg.FidelityTarget = p.Fidelity
		// Rank analytically throughout (§III-B's observations exist to
		// avoid pulse generation during the search); pulses are emitted
		// once for the final customized gates. Probing is covered by the
		// ablation benchmarks.
		cfg.ProbeCaseII = false
		name := ""
		switch m {
		case 0:
			cfg.M = 0
			name = "paqoc_m0"
		case mTunedSentinel:
			patterns, err := mining.MineCtx(ctx, phys, mining.DefaultOptions())
			if err != nil {
				return nil, err
			}
			cfg.M = mining.TunedM(phys, patterns, cfg.MinSupport)
			name = "paqoc_mtuned"
		default:
			cfg.M = paqoc.MInf
			name = "paqoc_minf"
		}
		comp := paqoc.NewForProfile(nil, p.Profile, cfg)
		res, err := comp.CompileCtx(ctx, phys)
		if err != nil {
			return nil, err
		}
		out = append(out, MethodResult{
			Method:       name,
			Latency:      res.Latency,
			TotalLatency: res.TotalLatency,
			CompileCost:  res.CompileCost,
			ESP:          res.ESP,
			NumBlocks:    res.NumBlocks,
			WallTime:     res.WallTime,
		})
	}
	return out, nil
}

const mTunedSentinel = -2

// BenchRow pairs a benchmark with its per-method results.
type BenchRow struct {
	Bench   string
	Results []MethodResult
}

// RunAll evaluates all given benchmarks under all methods. Benchmarks fan
// out on the worker pool (Platform.Workers); rows are collected by spec
// index, so the output order matches the input order for any worker count.
func (p *Platform) RunAll(specs []bench.Spec) ([]BenchRow, error) {
	rows := make([]BenchRow, len(specs))
	err := engine.ForEach(context.Background(), p.Workers, len(specs), func(ctx context.Context, i int) error {
		s := specs[i]
		phys, err := p.Physical(s)
		if err != nil {
			return err
		}
		res, err := p.RunMethods(phys)
		if err != nil {
			return fmt.Errorf("%s: %v", s.Name, err)
		}
		rows[i] = BenchRow{Bench: s.Name, Results: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// find returns the result for a method within a row.
func (r BenchRow) find(method string) MethodResult {
	for _, m := range r.Results {
		if m.Method == method {
			return m
		}
	}
	return MethodResult{}
}

// printNormalized renders a metric table normalized to accqoc_n3d3.
func printNormalized(w io.Writer, rows []BenchRow, metric func(MethodResult) float64, title string, higherBetter bool) {
	fmt.Fprintf(w, "%s (normalized to accqoc_n3d3)\n", title)
	fmt.Fprintf(w, "%-16s", "bench")
	for _, m := range Methods {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	sums := make([]float64, len(Methods))
	for _, row := range rows {
		base := metric(row.find("accqoc_n3d3"))
		fmt.Fprintf(w, "%-16s", row.Bench)
		for mi, m := range Methods {
			v := metric(row.find(m))
			norm := 0.0
			if base > 0 {
				norm = v / base
			}
			sums[mi] += norm
			fmt.Fprintf(w, " %14.3f", norm)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s", "mean")
	for mi := range Methods {
		fmt.Fprintf(w, " %14.3f", sums[mi]/float64(len(rows)))
	}
	fmt.Fprintln(w)
	_ = higherBetter // direction is annotated by the caller's title
}
