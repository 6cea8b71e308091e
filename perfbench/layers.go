package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"paqoc/internal/obs"
)

// cpuProfile is a CPU profile of this process over one traced phase.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir, name string) (*cpuProfile, error) {
	path := filepath.Join(dir, name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// attribute stops the profile and groups its samples by the repository's
// packages with `go tool pprof -traces`, which prints every sampled stack.
func (p *cpuProfile) attribute(ctx context.Context) (*attribution, error) {
	if err := p.stop(); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", p.path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// attribution is a CPU profile grouped by the repository's packages.
type attribution struct {
	total time.Duration
	// self maps a package (the last element of paqoc/internal/<pkg>) to the
	// CPU time of samples whose innermost repository frame is in it, so
	// standard-library and runtime callees count towards their caller.
	self map[string]time.Duration
	// weyl is the CPU time of samples with latency.WeylCoordinates
	// anywhere on the stack.
	weyl time.Duration
}

var repoFrame = regexp.MustCompile(`^paqoc/internal/([a-z0-9]+)\.`)

// parseTraces reads `go tool pprof -traces` output: stacks separated by
// dashed lines, the first line of each carrying the sample value before
// the leaf function, callers following one per line.
func parseTraces(out []byte) (*attribution, error) {
	a := &attribution{self: map[string]time.Duration{}}
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		a.total += value
		owner := ""
		for _, f := range frames {
			if m := repoFrame.FindStringSubmatch(f); m != nil {
				if owner == "" {
					owner = m[1]
				}
				if strings.HasPrefix(f, "paqoc/internal/latency.WeylCoordinates") {
					a.weyl += value
					break
				}
			}
		}
		if owner == "" {
			owner = "other"
		}
		a.self[owner] += value
		frames = frames[:0]
	}
	inStacks := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks || strings.TrimSpace(line) == "" {
			continue
		}
		if len(frames) == 0 {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, strings.Fields(line)[0])
	}
	flush()
	if a.total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return a, nil
}

// share is a package's share of the profiled CPU time.
func (a *attribution) share(pkg string) float64 {
	return float64(a.self[pkg]) / float64(a.total)
}

// stageTime aggregates the spans sharing one name.
type stageTime struct {
	count       int
	total, self time.Duration
}

// stageTimes aggregates span summaries (several may share a path) by span
// name. A span path's self time is its total minus the totals of its
// direct child paths; spans of one compile run serially, so children never
// overlap.
func stageTimes(sums []obs.StageSummary) map[string]stageTime {
	byPath := map[string]stageTime{}
	childTotal := map[string]time.Duration{}
	for _, s := range sums {
		st := byPath[s.Path]
		st.count += s.Count
		st.total += s.Total
		byPath[s.Path] = st
		if i := strings.LastIndexByte(s.Path, '/'); i >= 0 {
			childTotal[s.Path[:i]] += s.Total
		}
	}
	out := map[string]stageTime{}
	for path, p := range byPath {
		name := path[strings.LastIndexByte(path, '/')+1:]
		st := out[name]
		st.count += p.count
		st.total += p.total
		st.self += p.total - childTotal[path]
		out[name] = st
	}
	return out
}

// counterDelta subtracts two registry snapshots' counters.
func counterDelta(before, after *obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after.Counters {
		out[k] = v - before.Counters[k]
	}
	return out
}

// layerRun collects what a traced run observed, before normalization.
type layerRun struct {
	counters map[string]int64
	stages   map[string]stageTime
	prof     *attribution

	compiles       int // circuit compiles, every method
	paqocCompiles  int
	accqocCompiles int
	accqocTime     time.Duration
	// miningCalls/miningTime time the benchmark's own mining.MineCtx calls
	// (paqoc_mtuned's tuning pass); paqoc.mine spans add the rest.
	miningCalls int
	miningTime  time.Duration
	routes      int
	routeTime   time.Duration
	swaps       int
	dbHits      int
	dbMisses    int
	// generateMs are the emit generator's call times where the benchmark
	// wraps it; generateP50/P90 summarize them.
	generateMs               []float64
	generateP50, generateP90 float64
	gcShare                  float64
	overhead                 float64

	queueWaitMs []float64
	jobMs       []float64
	rejected    int64
	lagMaxMs    float64
	// hotShare and apaShare are the shares of replayed requests for a hot
	// circuit and with apa:true.
	hotShare, apaShare float64
}

// metrics normalizes the observations into the per-layer metric set:
// counts per compile (or per call of the layer), times as means per call.
func (l *layerRun) metrics() map[string]float64 {
	c := func(name string) float64 { return float64(l.counters[name]) }
	perCompile := func(v float64) float64 { return ratio(v, float64(l.compiles)) }
	stageMs := func(name string) float64 {
		st := l.stages[name]
		return ratio(ms(st.self), float64(st.count))
	}
	mine := l.stages["paqoc.mine"]
	miningCalls := float64(l.miningCalls + mine.count)
	generated := c("grape.generated")
	candidates := c("paqoc.merge.candidates")
	scanned, pruned := c("pulse.nearest_scanned"), c("pulse.nearest_pruned")
	// The GRAPE generator's DB lookups, by outcome (coalesced duplicates,
	// pulse.dedups, left out).
	lookups := c("grape.db_hits") + c("grape.db_permuted_hits") + generated
	m := map[string]float64{
		"latency.cpu_share":             l.prof.share("latency"),
		"latency.weyl_cpu_share":        float64(l.prof.weyl) / float64(l.prof.total),
		"latency.model.probes":          perCompile(c("latency.model.probes")),
		"latency.model.db_hit_ratio":    ratio(c("latency.model.db_hits"), c("latency.model.probes")),
		"mining.ms":                     ratio(ms(l.miningTime+mine.total), miningCalls),
		"mining.cpu_share":              l.prof.share("mining"),
		"mining.subcircuits_enumerated": ratio(c("mining.subcircuits_enumerated"), miningCalls),
		"mining.patterns":               ratio(c("mining.patterns"), miningCalls),
		"paqoc.initial_blocks_ms":       stageMs("paqoc.initial_blocks"),
		"paqoc.apply_apa_ms":            stageMs("paqoc.apply_apa"),
		"paqoc.optimize_ms":             stageMs("paqoc.optimize"),
		"paqoc.emit_ms":                 stageMs("paqoc.emit"),
		"paqoc.iterations":              ratio(c("paqoc.merge.rounds"), float64(l.paqocCompiles)),
		"paqoc.merge.candidates":        ratio(candidates, float64(l.paqocCompiles)),
		"paqoc.merge.accept_ratio":      ratio(c("paqoc.merge.applied"), candidates),
		"critical.cpu_share":            l.prof.share("critical"),
		"accqoc.ms":                     ratio(ms(l.accqocTime), float64(l.accqocCompiles)),
		"accqoc.groups":                 ratio(c("accqoc.groups"), float64(l.accqocCompiles)),
		"transpile.ms":                  ratio(ms(l.routeTime), float64(l.routes)),
		"transpile.swaps":               ratio(float64(l.swaps), float64(l.routes)),
		"pulse.db_hit_ratio":            ratio(float64(l.dbHits), float64(l.dbHits+l.dbMisses)),
		"pulse.nearest_scanned":         perCompile(scanned),
		"pulse.nearest_pruned_ratio":    ratio(pruned, scanned+pruned),
		"pulse.dedups":                  perCompile(c("pulse.db_dedups")),
		"pulse.cpu_share":               l.prof.share("pulse"),
		"pulse.exact_hit_share":         ratio(c("grape.db_hits"), lookups),
		"pulse.permuted_hit_share":      ratio(c("grape.db_permuted_hits"), lookups),
		"pulse.cold_miss_share":         ratio(generated, lookups),
		"grape.generate_ms_p50":         l.generateP50,
		"grape.generate_ms_p90":         l.generateP90,
		"grape.generated":               perCompile(generated),
		"grape.iterations":              ratio(c("grape.iterations"), generated),
		"grape.binsearch.probes":        ratio(c("grape.binsearch.probes"), generated),
		"grape.warm_start_ratio":        ratio(c("grape.warm_starts"), generated),
		"grape.cpu_share":               l.prof.share("grape"),
		"linalg.cpu_share":              l.prof.share("linalg"),
		"linalg.expm_calls":             perCompile(c("grape.expm") + c("pulsesim.expm")),
		"hamiltonian.cpu_share":         l.prof.share("hamiltonian"),
		"pulsesim.cpu_share":            l.prof.share("pulsesim"),
		"server.queue_wait_ms_p50":      quantile(l.queueWaitMs, 0.5),
		"server.queue_wait_ms_p90":      quantile(l.queueWaitMs, 0.9),
		"server.job_ms_p50":             quantile(l.jobMs, 0.5),
		"server.job_ms_p90":             quantile(l.jobMs, 0.9),
		"server.rejected":               float64(l.rejected),
		"runtime.gc_cpu_share":          l.gcShare,
		"loadgen.lag_ms_max":            l.lagMaxMs,
		"loadgen.hot_share":             l.hotShare,
		"loadgen.apa_share":             l.apaShare,
		"bench.trace_overhead_share":    l.overhead,
	}
	return m
}

// printAttribution writes the profile's package split, largest first, to
// stderr: the full picture behind the *.cpu_share metrics.
func printAttribution(a *attribution) {
	keys := sortedKeys(a.self)
	sort.SliceStable(keys, func(i, j int) bool { return a.self[keys[i]] > a.self[keys[j]] })
	fmt.Fprintf(os.Stderr, "cpu profile: %v sampled\n", a.total)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-14s %6.1f%%\n", k, 100*a.share(k))
	}
	fmt.Fprintf(os.Stderr, "  %-14s %6.1f%% (cumulative)\n", "latency.Weyl", 100*float64(a.weyl)/float64(a.total))
}
