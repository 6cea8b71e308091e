// Command perfbench is the PAQOC repository benchmark. One process runs one
// workload against the compiler's packages and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	sweep_analytical  the Fig. 10–12 sweep: five methods, analytical model
//	grape_emit        real-GRAPE emission, a fresh pulse DB per circuit
//	serve_replay      open-loop replay against an in-process paqoc server
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, taken from the obs counters and spans the
// compiler already exposes, from the benchmark's own timing of calls into
// each package, and from a CPU profile of this process grouped by package.
// Every compiled output is checked (equivalence.go); a failed check makes
// the run incorrect and the exit code 1. End-to-end times are reported at
// a reference host speed, each scaled by a speed probe's reading around it
// (speed.go); the times as measured are printed above the result.
//
// Seeds: --seed only generates inputs. Seeds 1–10 are the working seeds.
// Seed 1009 is held out: a change should be tuned on the working seeds and
// its claim then confirmed once on 1009.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// HeldOutSeed is never used while writing a change; claims are confirmed
// on it afterwards.
const HeldOutSeed = 1009

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"circuits_per_s", "1/s"},
	{"compile_ms_p50", "ms"},
	{"compile_ms_p90", "ms"},
	{"response_ms_p50", "ms"},
	{"response_ms_p90", "ms"},
	{"slo_met_share", "ratio"},
	{"failed_share", "ratio"},
	{"latency_ratio_geomean", "ratio"},
	{"esp_geomean", "ratio"},
	{"alloc_mb_per_circuit", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"latency.cpu_share", "ratio"},
	{"latency.weyl_cpu_share", "ratio"},
	{"latency.model.probes", "count"},
	{"latency.model.db_hit_ratio", "ratio"},
	{"mining.ms", "ms"},
	{"mining.cpu_share", "ratio"},
	{"mining.subcircuits_enumerated", "count"},
	{"mining.patterns", "count"},
	{"paqoc.initial_blocks_ms", "ms"},
	{"paqoc.apply_apa_ms", "ms"},
	{"paqoc.optimize_ms", "ms"},
	{"paqoc.emit_ms", "ms"},
	{"paqoc.iterations", "count"},
	{"paqoc.merge.candidates", "count"},
	{"paqoc.merge.accept_ratio", "ratio"},
	{"critical.cpu_share", "ratio"},
	{"accqoc.ms", "ms"},
	{"accqoc.groups", "count"},
	{"transpile.ms", "ms"},
	{"transpile.swaps", "count"},
	{"pulse.db_hit_ratio", "ratio"},
	{"pulse.nearest_scanned", "count"},
	{"pulse.nearest_pruned_ratio", "ratio"},
	{"pulse.dedups", "count"},
	{"pulse.cpu_share", "ratio"},
	{"pulse.exact_hit_share", "ratio"},
	{"pulse.permuted_hit_share", "ratio"},
	{"pulse.cold_miss_share", "ratio"},
	{"grape.generate_ms_p50", "ms"},
	{"grape.generate_ms_p90", "ms"},
	{"grape.generated", "count"},
	{"grape.iterations", "count"},
	{"grape.binsearch.probes", "count"},
	{"grape.warm_start_ratio", "ratio"},
	{"grape.cpu_share", "ratio"},
	{"linalg.cpu_share", "ratio"},
	{"linalg.expm_calls", "count"},
	{"hamiltonian.cpu_share", "ratio"},
	{"pulsesim.cpu_share", "ratio"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.job_ms_p50", "ms"},
	{"server.job_ms_p90", "ms"},
	{"server.rejected", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.lag_ms_max", "ms"},
	{"loadgen.hot_share", "ratio"},
	{"loadgen.apa_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.host_slowdown", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every input set to a minimal size (the benchmark's own
	// tests); timings from a quick run are not comparable.
	quick bool
	// serveRate is serve_replay's open-loop arrival rate (requests/s) and
	// serveSLO its latency limit per request.
	serveRate float64
	serveSLO  time.Duration
	// outDir holds CPU profiles of traced runs.
	outDir string
}

// outcome is what a workload run returns.
type outcome struct {
	attempted int
	failed    int
	// checkErrs are failed output checks; any makes the run incorrect.
	checkErrs []string
	// invalid is non-empty when the run measured nothing trustworthy (the
	// load generator fell behind its schedule).
	invalid string
	passes  int
	values  map[string]float64
	// raw holds the time metrics as measured, before scaling to the
	// reference host speed (speed.go); they are printed, not reported.
	raw map[string]float64
}

func (o *outcome) checkFailed(format string, args ...any) {
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"sweep_analytical": runSweep,
	"grape_emit":       runGrapeEmit,
	"serve_replay":     runServe,
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes one benchmark run and writes its report to w. It returns
// exit code 1 when an output check failed or the run is invalid, and an
// error (no result printed) when the benchmark itself could not run.
func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	var sloMs float64
	fs.StringVar(&opts.workload, "workload", "", "workload: sweep_analytical, grape_emit, or serve_replay")
	fs.Int64Var(&opts.seed, "seed", 1, "input seed")
	fs.Float64Var(&opts.seconds, "seconds", 30, "measured run length")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.BoolVar(&opts.quick, "quick", false, "minimal-size inputs (self-tests)")
	fs.Float64Var(&opts.serveRate, "serve-rate", 4, "serve_replay arrival rate, requests/s")
	fs.Float64Var(&sloMs, "serve-slo-ms", 1500, "serve_replay latency limit, ms")
	fs.StringVar(&opts.outDir, "out", ".bench_build", "directory for CPU profiles of traced runs")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if trace != 0 && trace != 1 {
		return 0, fmt.Errorf("--trace must be 0 or 1")
	}
	opts.trace = trace == 1
	opts.serveSLO = time.Duration(sloMs * float64(time.Millisecond))
	wl, ok := workloads[opts.workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds <= 0 || opts.serveRate <= 0 || sloMs <= 0 {
		return 0, errors.New("--seconds, --serve-rate and --serve-slo-ms must be positive")
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return 0, err
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	hostSpeed = &speedProbe{}
	out, err := wl(context.Background(), opts)
	hostSpeed.stop()
	if err != nil {
		return 0, err
	}
	slowdown := hostSpeed.slowdown()
	defs := endToEnd
	if opts.trace {
		defs = perLayer
		out.values["bench.host_slowdown"] = slowdown
	}
	if out.attempted < 1 {
		return 0, errors.New("workload attempted nothing")
	}
	out.values["failed_share"] = float64(out.failed) / float64(out.attempted)
	res := result{
		Correct:   len(out.checkErrs) == 0 && out.invalid == "",
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return 0, fmt.Errorf("workload %s did not report %s", opts.workload, d.name)
		}
		// failed_share is 0 on a healthy run, so a relative regression bound
		// cannot apply to it; it is printed above the result and carried by
		// the result's own failed/attempted counts.
		if d.name != "failed_share" {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}

	host := hostInfo(opts, out.passes, slowdown)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hb)
	for _, e := range out.checkErrs {
		fmt.Fprintf(w, "check failed: %s\n", e)
	}
	if out.invalid != "" {
		fmt.Fprintf(w, "invalid run: %s\n", out.invalid)
	}
	for _, d := range defs {
		if v, ok := out.raw[d.name]; ok {
			fmt.Fprintf(w, "measured %-23s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, out.values[d.name], d.unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%s\n", rb)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// hostInfo is the provenance block printed with every result.
func hostInfo(opts options, passes int, slowdown float64) map[string]any {
	cpu, avx2 := cpuModel()
	return map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"trace":         opts.trace,
		"passes":        passes,
		"host_slowdown": slowdown,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpu,
		"avx2":          avx2,
		"go":            runtime.Version(),
		"commit":        envOr("PERFBENCH_COMMIT", "unknown"),
		"source":        sourceDigest(),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuModel reads the CPU model name and whether it has the avx2 flag (the
// linalg fast path) from /proc/cpuinfo.
func cpuModel() (string, bool) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	model, avx2 := "unknown", false
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			for _, f := range strings.Fields(val) {
				if f == "avx2" {
					avx2 = true
				}
			}
		}
		if model != "unknown" && avx2 {
			break
		}
	}
	return model, avx2
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
