package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// logLines decodes each JSON line the logger wrote.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not valid JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("job queued", "job_id", "job-000001", "gates", 12, "sync", true)

	recs := logLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("lines = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec["level"] != "info" || rec["msg"] != "job queued" {
		t.Errorf("level/msg = %v/%v", rec["level"], rec["msg"])
	}
	if rec["job_id"] != "job-000001" || rec["gates"] != float64(12) || rec["sync"] != true {
		t.Errorf("fields = %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Errorf("ts not RFC3339Nano: %v", rec["ts"])
	}
	// Fixed fields lead the line so raw logs are scannable.
	if !strings.HasPrefix(buf.String(), `{"ts":`) {
		t.Errorf("record does not start with ts: %s", buf.String())
	}
	for _, k := range []string{`"level":`, `"msg":`} {
		if !strings.Contains(buf.String()[:60], k) {
			t.Errorf("%s not in record head: %s", k, buf.String())
		}
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	recs := logLines(t, &buf)
	if len(recs) != 2 || recs[0]["msg"] != "w" || recs[1]["msg"] != "e" {
		t.Errorf("filtered records = %v", recs)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestLoggerAwkwardValues(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("odd",
		"err", errors.New("boom"),
		"dur", 1500*time.Millisecond,
		"fn", func() {}, // unmarshalable: falls back to fmt.Sprint
		"dangling") // key with no value -> null
	rec := logLines(t, &buf)[0]
	if rec["err"] != "boom" {
		t.Errorf("error field = %v, want its Error() string", rec["err"])
	}
	if rec["dur"] != "1.5s" {
		t.Errorf("duration field = %v, want \"1.5s\"", rec["dur"])
	}
	if _, ok := rec["fn"].(string); !ok {
		t.Errorf("unmarshalable value = %v, want stringified", rec["fn"])
	}
	if v, present := rec["dangling"]; !present || v != nil {
		t.Errorf("dangling key = %v, want null", v)
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Info("x", "k", "v")
	l.Error("y")
	if l.Enabled(LevelError) {
		t.Error("nil logger must report disabled")
	}
}

func TestLoggerConcurrentNoInterleaving(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("tick", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	// Every line must decode cleanly; interleaved writes would not.
	if got := len(logLines(t, &buf)); got != 800 {
		t.Errorf("lines = %d, want 800", got)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "warn": LevelWarn,
		"Warning": LevelWarn, "error": LevelError, " info ": LevelInfo,
		"bogus": LevelInfo, "": LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
