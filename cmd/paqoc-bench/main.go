// Command paqoc-bench regenerates the paper's evaluation artifacts: every
// figure and table of §VI has a named experiment.
//
// Usage:
//
//	paqoc-bench -list
//	paqoc-bench fig2|fig6|fig10|fig11|fig12|fig13|fig14|table1|table2|table3|kernels|pulsedb|all
//
// The -benches flag restricts the Fig. 10–12/14 sweeps to a comma-separated
// subset (the full 17-benchmark sweep takes a couple of minutes, dominated
// by dnn). -csv emits Fig. 6's scatter points instead of the summary.
//
// -json <file> additionally writes machine-readable per-benchmark records
// (benchmark, method, latency, compile wall time, fidelity/ESP) plus a
// snapshot of the pipeline metrics registry, for the sweep-based
// experiments (fig10/fig11/fig12/fig14/all).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"paqoc/internal/bench"
	"paqoc/internal/device"
	"paqoc/internal/experiments"
	"paqoc/internal/obs"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list benchmarks and experiments")
		benches  = flag.String("benches", "", "comma-separated benchmark subset for fig10/11/12/14")
		csv      = flag.Bool("csv", false, "emit CSV scatter data (fig6)")
		limit    = flag.Int("fig6limit", 0, "cap the number of suite circuits used by fig6 (0 = all 150)")
		jsonOut  = flag.String("json", "", "write machine-readable per-benchmark results (sweep experiments) to this file")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "per-benchmark sweep worker pool size (1 = serial)")
		backend  = flag.String("backend", "", "device profile for the sweeps (default: the paper's xy-grid-5x5)")
		backends = flag.String("backends", "", "comma-separated device profiles for the backends experiment (default: every registered profile)")

		mineRounds = flag.Int("mine-rounds", 6, "rounds of workload replay for the mining experiment")
		mineBudget = flag.Int("mine-budget", 64, "patterns pre-generated per idle window in the mining experiment")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments: fig2 fig6 fig10 fig11 fig12 fig13 fig14 table1 table2 table2noisy table2full table3 ablate kernels pulsedb mining backends all")
		fmt.Println("backends:")
		for _, name := range device.Names() {
			prof, _ := device.Lookup(name)
			fmt.Printf("  %-16s %s (%d qubits)\n", name, prof.Description, prof.Topology().NumQubits)
		}
		fmt.Println("benchmarks:")
		for _, s := range bench.All() {
			fmt.Printf("  %-16s %s (%d qubits)\n", s.Name, s.Description, s.Qubits)
		}
		return
	}
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: paqoc-bench [flags] <experiment>; try -list"))
	}

	p := experiments.DefaultPlatform()
	if *backend != "" {
		prof, err := device.Lookup(*backend)
		check(err)
		p = experiments.PlatformFor(prof)
	}
	p.Workers = *workers
	if *jsonOut != "" {
		// Metrics only: the sweep needs counters for the JSON export, and a
		// tracer would accumulate one span per generated pulse across the
		// whole suite.
		p.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
	}
	specs := selectBenches(*benches)
	out := os.Stdout

	// jsonRows captures the per-benchmark sweep whenever one runs, feeding
	// the -json export after the human-readable output. kernelRecs does the
	// same for the kernels experiment (its own schema).
	var jsonRows []experiments.BenchRow
	var kernelRecs []experiments.KernelRecord
	var pulseDBRecs []experiments.PulseDBRecord
	var miningRecs []experiments.MiningRecord

	var run func(string)
	run = func(name string) {
		switch name {
		case "fig2":
			r, err := experiments.Fig2()
			check(err)
			r.Print(out)
		case "fig6":
			r, err := experiments.Fig6(*limit)
			check(err)
			if *csv {
				r.CSV(out)
			} else {
				r.Print(out)
			}
		case "fig10", "fig11", "fig12":
			rows, err := p.RunAll(specs)
			check(err)
			jsonRows = rows
			switch name {
			case "fig10":
				experiments.Fig10(out, rows)
			case "fig11":
				experiments.Fig11(out, rows)
			case "fig12":
				experiments.Fig12(out, rows)
			}
		case "fig13":
			r, err := experiments.Fig13(p)
			check(err)
			r.Print(out)
		case "fig14":
			r, err := experiments.Fig14(p, specs)
			check(err)
			r.Print(out)
		case "table1":
			experiments.PrintTableI(out, experiments.TableI())
		case "table2":
			rows, err := experiments.TableII(p)
			check(err)
			experiments.PrintTableII(out, rows)
		case "table2noisy":
			rows, err := experiments.TableIINoisy(p)
			check(err)
			experiments.PrintTableIINoisy(out, rows)
		case "table2full":
			rows, err := experiments.TableIIFull(p, experiments.TableIIBenches, 0)
			check(err)
			experiments.PrintTableIIFull(out, rows)
		case "ablate":
			target := "qaoa"
			if len(specs) > 0 && *benches != "" {
				target = specs[0].Name
			}
			rows, err := p.Ablation(target)
			check(err)
			experiments.PrintAblation(out, target, rows)
		case "table3":
			rows, err := experiments.TableIII(p)
			check(err)
			experiments.PrintTableIII(out, rows)
		case "kernels":
			kernelRecs = experiments.Kernels()
			experiments.PrintKernels(out, kernelRecs)
		case "pulsedb":
			pulseDBRecs = experiments.PulseDB()
			experiments.PrintPulseDB(out, pulseDBRecs)
		case "mining":
			var err error
			miningRecs, err = experiments.MiningReplay(*mineRounds, *mineBudget)
			check(err)
			experiments.PrintMiningReplay(out, miningRecs)
		case "backends":
			var names, benchNames []string
			if *backends != "" {
				names = splitCSV(*backends)
			}
			if *benches != "" {
				benchNames = splitCSV(*benches)
			}
			rows, err := experiments.Backends(names, benchNames, *workers)
			check(err)
			experiments.PrintBackends(out, rows)
		case "all":
			for _, n := range []string{"table1", "fig2", "fig6"} {
				run(n)
				fmt.Fprintln(out)
			}
			// One sweep serves Figs. 10–12 and 14.
			rows, err := p.RunAll(specs)
			check(err)
			jsonRows = rows
			experiments.Fig10(out, rows)
			fmt.Fprintln(out)
			experiments.Fig11(out, rows)
			fmt.Fprintln(out)
			experiments.Fig12(out, rows)
			fmt.Fprintln(out)
			for _, n := range []string{"fig13", "fig14", "table2", "table3"} {
				run(n)
				fmt.Fprintln(out)
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q; try -list", name))
		}
	}

	// Figs. 10–12 share one sweep when invoked via "all"; running them
	// individually is simpler and still correct, so keep it direct.
	run(flag.Arg(0))

	if *jsonOut != "" {
		switch {
		case kernelRecs != nil:
			if err := writeKernelJSON(*jsonOut, kernelRecs); err != nil {
				fatal(err)
			}
		case pulseDBRecs != nil:
			if err := writePulseDBJSON(*jsonOut, pulseDBRecs); err != nil {
				fatal(err)
			}
		case miningRecs != nil:
			if err := writeMiningJSON(*jsonOut, miningRecs); err != nil {
				fatal(err)
			}
		case jsonRows != nil:
			if err := writeBenchJSON(*jsonOut, jsonRows, p.Obs); err != nil {
				fatal(err)
			}
		default:
			fmt.Fprintf(os.Stderr, "paqoc-bench: -json applies to sweep experiments (fig10/fig11/fig12/all), kernels, pulsedb, and mining; nothing to write for %q\n", flag.Arg(0))
			return
		}
		fmt.Printf("results written to %s\n", *jsonOut)
	}
}

// writePulseDBJSON emits the sharded pulse-store benchmark records (the
// BENCH_005.json artifact).
func writePulseDBJSON(path string, recs []experiments.PulseDBRecord) error {
	doc := struct {
		Schema  string                      `json:"schema"`
		Results []experiments.PulseDBRecord `json:"results"`
	}{Schema: "paqoc-bench/pulsedb/v1", Results: recs}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeMiningJSON emits the offline-mining replay records (the
// BENCH_009.json artifact).
func writeMiningJSON(path string, recs []experiments.MiningRecord) error {
	doc := struct {
		Schema  string                     `json:"schema"`
		Results []experiments.MiningRecord `json:"results"`
	}{Schema: "paqoc-bench/mining/v1", Results: recs}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeKernelJSON emits the destination-passing kernel benchmark records
// (the BENCH_003.json artifact).
func writeKernelJSON(path string, recs []experiments.KernelRecord) error {
	doc := struct {
		Schema  string                     `json:"schema"`
		Results []experiments.KernelRecord `json:"results"`
	}{Schema: "paqoc-bench/kernels/v1", Results: recs}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// benchRecord is one (benchmark, method) result in the -json export.
type benchRecord struct {
	Bench         string  `json:"bench"`
	Method        string  `json:"method"`
	LatencyDt     float64 `json:"latency_dt"`
	TotalDt       float64 `json:"total_latency_dt"`
	CompileCostS  float64 `json:"compile_cost_s"`
	CompileWallMs float64 `json:"compile_wall_ms"`
	Fidelity      float64 `json:"fidelity"` // circuit ESP, Eq. (2)
	NumBlocks     int     `json:"num_blocks"`
}

// stageQuantiles is the per-pipeline-stage latency distribution summary of
// the -json export: p50/p90/p99 interpolated from the shared
// paqoc.stage_ms quantile histogram, so BENCH files capture distributions,
// not just means.
type stageQuantiles struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// collectStageQuantiles pulls the per-stage quantiles out of a snapshot.
func collectStageQuantiles(snap *obs.Snapshot) []stageQuantiles {
	fam, ok := snap.HistogramVecs[obs.StageMetric]
	if !ok {
		return nil
	}
	var out []stageQuantiles
	for _, se := range fam.Series {
		if se.Count == 0 || len(se.Values) == 0 {
			continue
		}
		out = append(out, stageQuantiles{
			Stage: se.Values[0],
			Count: se.Count,
			P50Ms: se.P50,
			P90Ms: se.P90,
			P99Ms: se.P99,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// writeBenchJSON emits the machine-readable sweep results alongside the
// pipeline metrics snapshot accumulated across all compiled methods.
func writeBenchJSON(path string, rows []experiments.BenchRow, o *obs.Obs) error {
	var records []benchRecord
	for _, row := range rows {
		for _, m := range row.Results {
			records = append(records, benchRecord{
				Bench:         row.Bench,
				Method:        m.Method,
				LatencyDt:     m.Latency,
				TotalDt:       m.TotalLatency,
				CompileCostS:  m.CompileCost,
				CompileWallMs: float64(m.WallTime.Microseconds()) / 1e3,
				Fidelity:      m.ESP,
				NumBlocks:     m.NumBlocks,
			})
		}
	}
	doc := struct {
		Schema  string           `json:"schema"`
		Results []benchRecord    `json:"results"`
		Stages  []stageQuantiles `json:"stage_quantiles,omitempty"`
		Metrics *obs.Snapshot    `json:"metrics,omitempty"`
	}{Schema: "paqoc-bench/v1", Results: records}
	if o != nil {
		doc.Metrics = o.Metrics.Snapshot()
		doc.Stages = collectStageQuantiles(doc.Metrics)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// splitCSV trims a comma-separated flag value into its non-empty fields.
func splitCSV(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func selectBenches(csv string) []bench.Spec {
	if csv == "" {
		return bench.All()
	}
	var out []bench.Spec
	for _, name := range strings.Split(csv, ",") {
		s, ok := bench.ByName(strings.TrimSpace(name))
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", name))
		}
		out = append(out, s)
	}
	return out
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paqoc-bench:", err)
	os.Exit(1)
}
