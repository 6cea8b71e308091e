package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"paqoc/internal/circuit"
	"paqoc/internal/obs"
)

// quickRun runs one minimal-size workload and returns its printed report
// and decoded result line.
func quickRun(t *testing.T, workload string, seed string, trace bool) (string, result) {
	t.Helper()
	tr := "0"
	if trace {
		tr = "1"
	}
	var buf bytes.Buffer
	code, err := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1",
		"--trace", tr, "--quick", "--out", t.TempDir()}, &buf)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	out := buf.String()
	if code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return out, res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, wl := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			out, res := quickRun(t, wl, "1", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if !metricName.MatchString(d.name) {
					t.Errorf("bad metric name %q", d.name)
				}
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `$`).MatchString(out) {
					t.Errorf("%s trace=%v: %s not printed with unit %s", wl, trace, d.name, d.unit)
				}
				m, ok := res.Metrics[d.name]
				switch {
				case d.name == "failed_share":
					if ok {
						t.Errorf("failed_share belongs in the report, not the result")
					}
				case !ok:
					t.Errorf("%s trace=%v: result lacks %s", wl, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
				}
			}
			want := len(defs)
			if !trace {
				want-- // failed_share
			}
			if n := len(res.Metrics); n != want {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", wl, trace, n, want)
			}
		}
	}
}

func TestQualityMetricsRepeatBitForBit(t *testing.T) {
	for _, wl := range []string{"sweep_analytical", "grape_emit"} {
		_, a := quickRun(t, wl, "7", false)
		_, b := quickRun(t, wl, "7", false)
		for _, name := range []string{"latency_ratio_geomean", "esp_geomean"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s %v then %v", wl, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestHeldOutSeedDrawsOtherInputs(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if seed == HeldOutSeed {
			t.Fatal("the held-out seed is a working seed")
		}
	}
	last := func(in []namedCircuit) string { return in[len(in)-1].c.String() }
	if last(sweepInputs(1, false)) == last(sweepInputs(HeldOutSeed, false)) {
		t.Error("sweep_analytical draws the same seeded circuits for seed 1 and the held-out seed")
	}
	if last(grapeInputs(1, false)) == last(grapeInputs(HeldOutSeed, false)) {
		t.Error("grape_emit draws the same seeded circuit for seed 1 and the held-out seed")
	}
	_, a, err := serveInputs(1, 4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := serveInputs(HeldOutSeed, 4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[0].body, b[0].body) && a[0].due == b[0].due {
		t.Error("serve_replay draws the same schedule for seed 1 and the held-out seed")
	}
}

func TestParseTracesAttributesToInnermostRepoFrame(t *testing.T) {
	out := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   math.sin
             paqoc/internal/latency.spectrumDistance
             paqoc/internal/latency.WeylCoordinates
             paqoc/internal/paqoc.(*Compiler).CompileCtx
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             paqoc/internal/mining.(*enumerator).signature
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	a, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 50*time.Millisecond || a.weyl != 30*time.Millisecond {
		t.Fatalf("total %v weyl %v", a.total, a.weyl)
	}
	if a.share("latency") != 0.6 || a.share("mining") != 0.2 || a.share("other") != 0.2 {
		t.Errorf("shares %v", a.self)
	}
}

func TestStageTimesSubtractChildrenOnce(t *testing.T) {
	// Two jobs report the same span paths separately.
	job := []obs.StageSummary{
		{Path: "job/paqoc.emit", Count: 1, Total: 10 * time.Millisecond},
		{Path: "job/paqoc.emit/grape.generate", Count: 3, Total: 8 * time.Millisecond},
	}
	st := stageTimes(append(append([]obs.StageSummary(nil), job...), job...))
	if got := st["paqoc.emit"]; got.count != 2 || got.self != 4*time.Millisecond {
		t.Errorf("paqoc.emit %+v, want count 2 self 4ms", got)
	}
	if got := st["grape.generate"]; got.self != 16*time.Millisecond {
		t.Errorf("grape.generate self %v, want 16ms", got.self)
	}
}

func TestSameWireOrderCatchesReordering(t *testing.T) {
	c := circuit.New(2)
	c.Add("h", 0)
	c.Add("cx", 0, 1)
	c.Add("t", 1)
	same := circuit.New(2)
	same.Add("h", 0)
	same.Add("cx", 0, 1)
	same.Add("t", 1)
	if err := sameWireOrder(c, same); err != nil {
		t.Errorf("identical circuits: %v", err)
	}
	swapped := circuit.New(2)
	swapped.Add("t", 1)
	swapped.Add("h", 0)
	swapped.Add("cx", 0, 1)
	if sameWireOrder(c, swapped) == nil {
		t.Error("moving t before cx on wire 1 went unnoticed")
	}
}

func TestDescribedGatesRoundTrip(t *testing.T) {
	gates, err := describedGates("[h 3; rz(1.5708) 2; cx 3 2]", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 3 || gates[2].Name != "cx" || gates[2].Qubits[0] != 3 || gates[1].Params[0] != 1.5708 {
		t.Errorf("parsed %v", gates)
	}
}

func TestSlowdownBetweenUsesTheWindowsSamples(t *testing.T) {
	t0 := time.Now()
	p := &speedProbe{samples: []probeSample{
		{t0, refKernelSeconds},
		{t0.Add(time.Second), 2 * refKernelSeconds},
		{t0.Add(2 * time.Second), 2 * refKernelSeconds},
		{t0.Add(3 * time.Second), refKernelSeconds},
	}}
	if got := p.slowdownBetween(t0.Add(950*time.Millisecond), t0.Add(2050*time.Millisecond)); got != 2 {
		t.Errorf("slowdown within the window %v, want 2", got)
	}
	// No sample near the window: the whole run's median.
	if got := p.slowdownBetween(t0.Add(10*time.Second), t0.Add(11*time.Second)); got != 1.5 {
		t.Errorf("slowdown outside every sample %v, want 1.5", got)
	}
}
