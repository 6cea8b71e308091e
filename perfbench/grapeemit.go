package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/grape"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
)

// grapeInputs returns simon, fixed small circuits (4 qubits, tens of
// gates) from internal/bench's generators, and one 3-qubit QAOA round with
// seeded angles. Only that last circuit depends on the seed: GRAPE's cost
// swings up to 3× with a circuit's exact unitaries (simon took 2.6–8.3 s
// under seeded qubit relabellings), so a seeded input set would let the
// seed, not the program, set the numbers. The set is kept small enough
// (a 4-qubit adder and RevLib network, about 5 s each, and 4- and 5-qubit
// QAOA rounds were left out) that three rounds fit in a run, so every time
// is a median of repeats, and even in size, so that compile_ms_p50 and p90
// each fall between two inputs rather than on one.
func grapeInputs(seed int64, quick bool) []namedCircuit {
	rng := rand.New(rand.NewSource(seed))
	var in []namedCircuit
	if quick {
		in = []namedCircuit{{"qaoa_3q", bench.QAOAMaxcut(3, 0.731, 0.405)}}
	} else {
		simon, _ := bench.ByName("simon")
		in = []namedCircuit{
			{"simon", simon.Build()},
			{"bv_4q", bench.BV(3, []bool{true, false, true})},
			{"simon_4q", bench.Simon(2, []bool{true, true})},
			{"qft_4q", bench.QFT(4)},
			{"qpe_4q", bench.QPE(3, math.Pi/3)},
		}
	}
	in = append(in, namedCircuit{"seeded_qaoa_3q", bench.QAOAMaxcut(3, 0.5+rng.Float64()*0.5, 0.3+rng.Float64()*0.3)})
	return in
}

// runGrapeEmit is the grape_emit workload: real-GRAPE compiles with the
// paqoc_m0 configuration, one worker in the pipeline and in GRAPE, and a
// fresh pulse database per circuit, as in a fresh compiler invocation.
func runGrapeEmit(ctx context.Context, opts options) (*outcome, error) {
	prof := device.Default()
	// The slo limit is 3× the compile_ms_p90 measured when this benchmark
	// was added (about 2.5 s on a 2-core Xeon); every compile met it then,
	// the slowest (simon_4q) with about 2.4 s.
	b := &batchWorkload{slo: 7500 * time.Millisecond}
	b.compile = func(ctx context.Context, in namedCircuit, l *layerRun) (*circuitRun, error) {
		return grapeCircuit(ctx, prof, in, l)
	}
	b.check = func(ctx context.Context, r *circuitRun) []string { return checkGrape(ctx, prof, r) }
	// One tiny GRAPE compile, untimed, so lazily built tables exist before
	// timing starts: its run time swings too much to sit in setup_s.
	warm := namedCircuit{"warm", circuit.New(2).Add("cx", 0, 1)}
	if _, err := b.compile(ctx, warm, nil); err != nil {
		return nil, err
	}
	// Set-up: build the inputs and one compiler.
	setup, _ := medianDuration(401, func() error {
		b.inputs = grapeInputs(opts.seed, opts.quick)
		grapeCompiler(prof, nil)
		return nil
	})
	if opts.trace {
		return b.traced(ctx, opts)
	}
	return b.measure(ctx, opts, setup)
}

func grapeCircuit(ctx context.Context, prof *device.Profile, in namedCircuit, l *layerRun) (*circuitRun, error) {
	r, err := routeCircuit(in.c, prof.Topology(), l)
	if err != nil {
		return nil, err
	}
	r.name = in.name
	comp := grapeCompiler(prof, l)
	r.compiles = append(r.compiles, timeCompile("paqoc_m0", func() (compileRun, error) {
		return compilePAQOC(ctx, comp, r, l)
	}))
	return r, nil
}

// grapeCompiler builds a paqoc_m0 compiler over a fresh GRAPE generator
// and pulse DB.
func grapeCompiler(prof *device.Profile, l *layerRun) *paqoc.Compiler {
	gopts := grape.DefaultOptions()
	gopts.Workers = 1
	g := grape.NewGenerator(gopts)
	g.Topo = prof.Topology()
	g.System = prof.SystemBuilder()
	g.DB.SetFingerprint(prof.Fingerprint())
	cfg := paqoc.DefaultConfig()
	cfg.FidelityTarget = sweepFidelity
	cfg.ProbeCaseII = false
	cfg.M = 0
	cfg.Workers = 1
	tg := &timedGenerator{g: g}
	if l != nil {
		tg.ms = &l.generateMs
	}
	return paqoc.NewForProfile(tg, prof, cfg)
}

// timedGenerator wraps the emit generator and, in traced runs, records the
// wall time of every GenerateCtx call (grape.generate_ms_*).
type timedGenerator struct {
	g  *grape.Generator
	ms *[]float64
}

func (t *timedGenerator) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fidelityTarget float64) (*pulse.Generated, error) {
	t0 := time.Now()
	gen, err := t.g.GenerateCtx(ctx, cg, fidelityTarget)
	if t.ms != nil {
		*t.ms = append(*t.ms, ms(time.Since(t0)))
	}
	return gen, err
}

func (t *timedGenerator) PulseDB() *pulse.DB { return t.g.PulseDB() }

// checkGrape verifies the compile's equivalence and replays every block's
// GRAPE schedule.
func checkGrape(ctx context.Context, prof *device.Profile, r *circuitRun) []string {
	failures := checkSweep(ctx, r)
	for _, c := range r.compiles {
		if c.err != nil {
			continue
		}
		for _, b := range c.blocks.Blocks {
			if b.Gen == nil {
				failures = append(failures, fmt.Sprintf("block %v was not emitted", b.Qubits))
				continue
			}
			target, err := b.Custom().Unitary()
			if err == nil {
				_, err = checkSchedule(ctx, prof, b.Qubits, target, b.Gen.Schedule, sweepFidelity)
			}
			if err != nil {
				failures = append(failures, err.Error())
			}
		}
	}
	return failures
}
