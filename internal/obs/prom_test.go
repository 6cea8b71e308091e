package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one of everything, deterministic
// values, names needing sanitization, and label values needing escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("server.requests").Add(42)
	r.SetHelp("server.requests", "Total compile requests received.")
	r.Gauge("engine.active_workers").Set(3)
	r.Gauge("grape.best_fidelity").Set(0.9987)

	h := r.Histogram("server.queue_wait_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5)
	h.Observe(5000) // +Inf bucket
	r.SetHelp("server.queue_wait_ms", "Queue wait in ms.\nSecond line.")

	hv := r.HistogramVec(StageMetric, []float64{1, 10}, "stage")
	hv.WithLabelValues("mine").Observe(3)
	hv.WithLabelValues("emit").Observe(0.2)
	hv.WithLabelValues("emit").Observe(20)
	hv.WithLabelValues(`weird"va\lue` + "\n").Observe(7)
	r.SetHelp(StageMetric, "Per-stage wall clock (ms).")

	// The offline miner's families, as preregistered by the server.
	r.Counter("miner.pregenerated").Add(2)
	r.SetHelp("miner.pregenerated", "APA-basis pulses pre-generated during idle capacity.")
	r.Counter("miner.pregen_hits").Add(5)
	r.Counter("miner.idle_runs").Add(3)
	r.Counter("miner.yields").Add(1)
	r.Gauge("miner.patterns_tracked").Set(4)
	r.Gauge("miner.corpus_circuits").Set(12)
	mh := r.Histogram("miner.pregen_ms", []float64{10, 1000})
	mh.Observe(250)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom_golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// promLine matches a valid exposition sample line: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

func TestWritePrometheusParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			families = append(families, parts[2])
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown family type in %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("sample line does not parse: %q", line)
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("families not sorted by exposition name: %v", families)
	}
}

func TestPrometheusHistogramTriplet(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="10"} 2`, // cumulative, not per-bucket
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 505.5",
		"lat_count 3",
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("histogram triplet:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestPrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("stage_ms", []float64{1}, "stage")
	hv.WithLabelValues("mine").Observe(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stage_ms_bucket{stage="mine",le="1"} 1`,
		`stage_ms_bucket{stage="mine",le="+Inf"} 1`,
		`stage_ms_sum{stage="mine"} 0.5`,
		`stage_ms_count{stage="mine"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"paqoc.stage_ms": "paqoc_stage_ms",
		"9lives":         "_lives",
		"a-b c":          "a_b_c",
		"ok_name:x":      "ok_name:x",
		"":               "_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEscape(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := PromEscape(in); got != want {
		t.Errorf("PromEscape = %q, want %q", got, want)
	}
	if got := PromUnescape(want); got != in {
		t.Errorf("PromUnescape = %q, want %q", got, in)
	}
}

func TestPromFloat(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.5:          "0.5",
		3:            "3",
	} {
		if got := promFloat(v); got != want {
			t.Errorf("promFloat(%g) = %q, want %q", v, got, want)
		}
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
	// Round trip: the shortest form must parse back to the same bits.
	for _, v := range []float64{0.1, 1e-9, 12345.6789, 6e22} {
		back, err := strconv.ParseFloat(promFloat(v), 64)
		if err != nil || back != v {
			t.Errorf("promFloat(%g) = %q does not round-trip (%v)", v, promFloat(v), err)
		}
	}
}

// FuzzPromEscape checks that escaping is reversible and that escaped
// values never contain a raw quote or newline (which would corrupt the
// exposition line structure).
func FuzzPromEscape(f *testing.F) {
	for _, seed := range []string{"", "plain", `back\slash`, `qu"ote`, "new\nline", `\\n`, "\\\"", "λ stage"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		esc := PromEscape(s)
		if strings.ContainsAny(esc, "\n\"") && !strings.Contains(esc, `\"`) {
			// Any quote must be escaped; a bare newline must never survive.
			t.Fatalf("escaped value %q leaks structural characters", esc)
		}
		if strings.Contains(esc, "\n") {
			t.Fatalf("escaped value %q contains a raw newline", esc)
		}
		if got := PromUnescape(esc); got != s {
			t.Fatalf("round trip: %q -> %q -> %q", s, esc, got)
		}
	})
}

// TestPromLabelsExtra pins the le-label composition used by histogram
// bucket lines, with and without series labels.
func TestPromLabelsExtra(t *testing.T) {
	if got := promLabels(nil, nil, "le", "+Inf"); got != `{le="+Inf"}` {
		t.Errorf("bare extra label = %q", got)
	}
	if got := promLabels([]string{"stage"}, []string{"mine"}, "le", 10); got != `{stage="mine",le="10"}` {
		t.Errorf("combined labels = %q", got)
	}
	if got := promLabels(nil, nil, "", 0); got != "" {
		t.Errorf("no labels = %q, want empty", got)
	}
	if got := fmt.Sprintf("m%s 1", promLabels([]string{"a"}, nil, "", 0)); got != `m{a=""} 1` {
		t.Errorf("missing value renders = %q", got)
	}
}
