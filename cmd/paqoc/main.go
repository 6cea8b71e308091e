// Command paqoc compiles a quantum circuit into control pulses with the
// PAQOC framework and reports latency, ESP, and the customized-gate
// grouping.
//
// Usage:
//
//	paqoc [flags] <circuit-file>        compile a circuit in the text format
//	paqoc [flags] -bench <name>         compile a built-in Table I benchmark
//
// Flags select the APA knob (-m), the group width cap (-maxn), top-k, the
// fidelity target, and whether to run real GRAPE (-grape) instead of the
// calibrated analytical model for final pulse emission. -backend picks the
// device profile (topology, control bounds, noise) from the
// internal/device registry; dynamic names like xy-grid-3x4 or
// linear-chain-8 build grids and chains of any size.
//
// Observability: -trace <file> writes a Chrome trace-event JSON of the
// pipeline spans (open at chrome://tracing or ui.perfetto.dev), -metrics
// <file> writes a JSON snapshot of all pipeline counters and histograms,
// and -pprof <addr> serves net/http/pprof for the duration of the run.
// Any of these also prints a per-stage wall-time summary on completion.
// With all three omitted the instrumentation is inert: the compile path
// pays only nil checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/grape"
	"paqoc/internal/latency"
	"paqoc/internal/obs"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/qasm"
	"paqoc/internal/route"
	"paqoc/internal/statevec"
	"paqoc/internal/transpile"
)

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

func run() error {
	var (
		benchName   = flag.String("bench", "", "compile a built-in Table I benchmark instead of a file")
		mFlag       = flag.String("m", "0", "APA-basis gate budget: 0, inf, tuned, or a positive integer")
		maxN        = flag.Int("maxn", 3, fmt.Sprintf("maximum qubits per customized gate (1 to %d)", latency.MaxQubits))
		topK        = flag.Int("topk", 1, "merges applied per search iteration")
		fidelity    = flag.Float64("fidelity", 0.99, "per-gate fidelity target (above 0 and below 1)")
		useGrape    = flag.Bool("grape", false, "emit final pulses with the real GRAPE optimizer (slower)")
		backend     = flag.String("backend", device.DefaultName, "device profile: a registered name (see internal/device) or a dynamic one like xy-grid-3x4, linear-chain-8, heavy-hex-2")
		showGroups  = flag.Bool("groups", false, "print the final customized-gate grouping")
		render      = flag.Bool("render", false, "draw the physical circuit as an ASCII wire diagram")
		pulseJSON   = flag.String("pulse-json", "", "write per-block pulse schedules (requires -grape) to this file")
		verify      = flag.Bool("verify", false, "statevector-check the compiled circuit against the physical circuit")
		bidir       = flag.Int("bidir", 0, "SABRE forward-backward layout refinement passes (0 = off)")
		dbPath      = flag.String("db", "", "pulse-database file: loaded if present, saved after compiling (with -grape)")
		traceFile   = flag.String("trace", "", "write a Chrome trace-event JSON of pipeline spans to this file")
		metricsFile = flag.String("metrics", "", "write a JSON snapshot of pipeline metrics to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "pulse-generation worker pool size (1 = serial, bit-identical to the single-threaded pipeline)")
	)
	flag.Parse()
	if *maxN < 1 || *maxN > latency.MaxQubits {
		// Merges are ranked with the analytical model, which estimates
		// groups of at most latency.MaxQubits qubits.
		return fmt.Errorf("bad -maxn %d (want 1 to %d)", *maxN, latency.MaxQubits)
	}
	if !(*fidelity > 0 && *fidelity < 1) {
		// A target of 1 or more is unreachable: GRAPE would search every
		// duration before failing each gate.
		return fmt.Errorf("bad -fidelity %v (want above 0 and below 1)", *fidelity)
	}

	// Observability backends. The tracer also powers the per-stage summary,
	// so it is enabled whenever any observability flag is set.
	var o *obs.Obs
	ctx := context.Background()
	if *traceFile != "" || *metricsFile != "" || *pprofAddr != "" {
		o = &obs.Obs{Tracer: obs.NewTracer()}
		if *metricsFile != "" {
			o.Metrics = obs.NewRegistry()
			paqoc.PreregisterMetrics(o.Metrics)
		}
		ctx = o.Attach(ctx)
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %v", err)
		}
		defer ln.Close()
		fmt.Printf("pprof:    serving on http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	logical, err := loadCircuit(*benchName, flag.Args())
	if err != nil {
		return err
	}

	prof, err := device.Lookup(*backend)
	if err != nil {
		return err
	}
	topo := prof.Topology()
	routeOpts := route.DefaultOptions()
	_, routeSpan := obs.StartSpan(ctx, "transpile.route")
	phys, routeRes, err := transpile.ToPhysical(logical, topo, routeOpts)
	routeSpan.End()
	if err != nil {
		return err
	}
	if *bidir > 0 {
		// Re-route the lowered circuit with forward-backward refinement.
		lowered, err := transpile.Decompose(logical, transpile.UniversalBasis())
		if err != nil {
			return err
		}
		refined, err := route.RouteBidirectional(lowered, topo, routeOpts, *bidir)
		if err != nil {
			return err
		}
		if refined.SwapCount < routeRes.SwapCount {
			if phys, err = transpile.Decompose(refined.Physical, transpile.UniversalBasis()); err != nil {
				return err
			}
			routeRes = refined
		}
	}

	cfg := paqoc.DefaultConfig()
	cfg.MaxN = *maxN
	cfg.TopK = *topK
	cfg.FidelityTarget = *fidelity
	cfg.ProbeCaseII = false
	cfg.Workers = *workers
	switch *mFlag {
	case "0":
		cfg.M = 0
	case "inf":
		cfg.M = paqoc.MInf
	case "tuned":
		cfg.M = paqoc.MTuned
	default:
		if _, err := fmt.Sscanf(*mFlag, "%d", &cfg.M); err != nil || cfg.M < 0 {
			return fmt.Errorf("bad -m value %q", *mFlag)
		}
	}

	var gen pulse.Generator
	var grapeGen *grape.Generator
	if *useGrape {
		grapeGen = grape.NewGenerator(grape.DefaultOptions())
		grapeGen.Topo = topo
		grapeGen.System = prof.SystemBuilder()
		grapeGen.DB.SetFingerprint(prof.Fingerprint())
		if *dbPath != "" {
			// Pinned load: a snapshot calibrated for another backend is an
			// error, not silently-wrong warm pulses.
			db, ok, err := pulse.LoadFile(*dbPath, prof.Fingerprint())
			if err != nil {
				return err
			}
			grapeGen.DB = db
			if ok {
				fmt.Printf("pulse DB: loaded %d entries from %s\n", db.Len(), *dbPath)
			}
		}
		gen = grapeGen
	}
	comp := paqoc.NewForProfile(gen, prof, cfg)
	if o != nil && o.Metrics != nil {
		// The pulse DB emits its own counters (nearest scan/prune split,
		// evictions) alongside the pipeline's. New defaults gen to the
		// analytical model, so wire whichever DB actually serves compiles.
		if p, ok := comp.Gen.(pulse.DBProvider); ok {
			p.PulseDB().SetMetrics(o.Metrics)
		}
	}
	res, err := comp.CompileCtx(ctx, phys)
	if err != nil {
		return err
	}
	if cfg.M == paqoc.MTuned {
		// The tuned M is the number of APA-basis gates it selected.
		fmt.Printf("tuned M = %d\n", len(res.APASelections))
	}
	if grapeGen != nil && *dbPath != "" {
		if err := savePulseDB(*dbPath, grapeGen); err != nil {
			return err
		}
		fmt.Printf("pulse DB: saved %d entries to %s\n", grapeGen.DB.Len(), *dbPath)
	}

	fmt.Printf("backend:  %s (%d qubits, fingerprint %s)\n", prof.Name, topo.NumQubits, prof.Fingerprint())
	fmt.Printf("input:    %d logical gates on %d qubits\n", len(logical.Gates), logical.NumQubits)
	fmt.Printf("physical: %d gates after routing (%d swaps)\n", len(phys.Gates), routeRes.SwapCount)
	fmt.Printf("output:   %d customized gates", res.NumBlocks)
	if n := len(res.APASelections); n > 0 {
		fmt.Printf(" using %d APA-basis patterns", n)
	}
	fmt.Println()
	fmt.Printf("latency:  %.0f dt (fixed-gate baseline %.0f dt, %.1f%% reduction)\n",
		res.Latency, res.InitialLatency, 100*(1-res.Latency/res.InitialLatency))
	fmt.Printf("ESP:      %.4f\n", res.ESP)
	fmt.Printf("compile:  %.2f s modelled pulse generation (%v wall)\n", res.CompileCost, res.WallTime.Round(1e6))

	if *showGroups {
		fmt.Println("\ncustomized gates:")
		for i, b := range res.Blocks.Blocks {
			tag := ""
			if b.APA {
				tag = "  [APA]"
			}
			fmt.Printf("  %3d  %6.0f dt  %s%s\n", i, b.Latency, b.Custom().Describe(), tag)
		}
	}
	if *verify {
		if err := verifyCompiled(phys, res); err != nil {
			return err
		}
		fmt.Println("verify:   compiled circuit is statevector-equivalent to the physical circuit ✓")
	}
	if *render {
		fmt.Println("\nphysical circuit:")
		fmt.Print(phys.RenderASCII())
	}
	if *pulseJSON != "" {
		if err := writeSchedules(*pulseJSON, res); err != nil {
			return err
		}
		fmt.Printf("schedules written to %s\n", *pulseJSON)
	}

	// Observability outputs: per-stage summary plus the requested exports.
	if o != nil && o.Tracer != nil {
		fmt.Println("\nper-stage summary:")
		o.Tracer.WriteSummary(os.Stdout)
		if o.Metrics != nil {
			// Pool saturation: how parallel the emit/probe stages actually ran.
			snap := o.Metrics.Snapshot()
			fmt.Printf("  engine pool: %d tasks, %d completed, peak %g active, peak %g queued\n",
				snap.Counters["engine.tasks"], snap.Counters["engine.completed"],
				snap.Gauges["engine.active_workers.peak"], snap.Gauges["engine.queued.peak"])
			// Stage latency quantiles from the shared paqoc.stage_ms histogram
			// family — interpolated from the log-spaced buckets, so p99 on a
			// single compile is really just the max observation.
			if fam, ok := snap.HistogramVecs[obs.StageMetric]; ok {
				for _, se := range fam.Series {
					if se.Count == 0 || len(se.Values) == 0 {
						continue
					}
					fmt.Printf("  stage %-14s n=%-4d p50=%.3fms p90=%.3fms p99=%.3fms\n",
						se.Values[0], se.Count, se.P50, se.P90, se.P99)
				}
			}
		}
	}
	if *traceFile != "" {
		if err := writeFileWith(*traceFile, o.Tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %v", err)
		}
		fmt.Printf("trace written to %s (open at chrome://tracing)\n", *traceFile)
	}
	if *metricsFile != "" {
		if err := writeFileWith(*metricsFile, o.Metrics.Snapshot().WriteJSON); err != nil {
			return fmt.Errorf("metrics: %v", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsFile)
	}
	return nil
}

// writeFileWith streams fn into path, closing the file on every path and
// reporting the first error encountered.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// savePulseDB writes the generator's database crash-safely (temp file +
// rename), so an interrupted save never corrupts an existing database.
func savePulseDB(path string, g *grape.Generator) error {
	_, err := g.DB.SaveFile(path)
	return err
}

// verifyCompiled checks, on the statevector simulator, that the compiled
// block circuit implements the same state as the physical circuit.
func verifyCompiled(phys *circuit.Circuit, res *paqoc.Result) error {
	a, _ := phys.Compact()
	b, _ := res.Blocks.Flatten().Compact()
	if a.NumQubits != b.NumQubits {
		return fmt.Errorf("verify: width mismatch %d vs %d", a.NumQubits, b.NumQubits)
	}
	if a.NumQubits > statevec.MaxQubits {
		return fmt.Errorf("verify: %d used qubits exceed the statevector limit %d", a.NumQubits, statevec.MaxQubits)
	}
	sa, err := statevec.Run(a)
	if err != nil {
		return err
	}
	sb, err := statevec.Run(b)
	if err != nil {
		return err
	}
	f, err := statevec.Fidelity(sa, sb)
	if err != nil {
		return err
	}
	if f < 1-1e-7 {
		return fmt.Errorf("verify: compiled circuit deviates, state fidelity %.9f", f)
	}
	return nil
}

// writeSchedules dumps every block's pulse schedule as a JSON array.
func writeSchedules(path string, res *paqoc.Result) error {
	type entry struct {
		Block    string          `json:"block"`
		Qubits   []int           `json:"qubits"`
		Latency  float64         `json:"latency_dt"`
		Fidelity float64         `json:"fidelity"`
		Schedule *pulse.Schedule `json:"schedule,omitempty"`
	}
	var out []entry
	for _, b := range res.Blocks.Blocks {
		e := entry{
			Block:  b.Custom().Describe(),
			Qubits: b.Qubits,
		}
		if b.Gen != nil {
			e.Latency = b.Gen.Latency
			e.Fidelity = b.Gen.Fidelity
			e.Schedule = b.Gen.Schedule
		}
		out = append(out, e)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadCircuit(benchName string, args []string) (*circuit.Circuit, error) {
	if benchName != "" {
		spec, ok := bench.ByName(benchName)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (see cmd/paqoc-bench -list)", benchName)
		}
		return spec.Build(), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: paqoc [flags] <circuit-file> | paqoc -bench <name>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(args[0], ".qasm") {
		return qasm.Parse(string(data))
	}
	return circuit.Parse(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paqoc:", err)
	os.Exit(1)
}
