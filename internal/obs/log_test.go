package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
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
	l := NewLogger(&buf, slog.LevelInfo)
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
	ts, err := time.Parse(time.RFC3339Nano, rec["ts"].(string))
	if err != nil || ts.Location() != time.UTC {
		t.Errorf("ts not RFC3339Nano in UTC: %v", rec["ts"])
	}
	// Fixed fields lead the line so raw logs are scannable; the call's
	// pairs follow in call order.
	want := `{"ts":"` + rec["ts"].(string) + `","level":"info","msg":"job queued","job_id":"job-000001","gates":12,"sync":true}` + "\n"
	if buf.String() != want {
		t.Errorf("record = %s, want %s", buf.String(), want)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	recs := logLines(t, &buf)
	if len(recs) != 2 || recs[0]["msg"] != "w" || recs[1]["msg"] != "e" {
		t.Errorf("filtered records = %v", recs)
	}
	if recs[0]["level"] != "warn" || recs[1]["level"] != "error" {
		t.Errorf("levels = %v/%v, want warn/error", recs[0]["level"], recs[1]["level"])
	}
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelWarn) {
		t.Error("Enabled disagrees with filtering")
	}
}

// TestLoggerAwkwardValues: an error is written as its message; durations,
// unmarshalable values and a key with no value follow slog's JSON rules.
func TestLoggerAwkwardValues(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	// go vet rejects a literal key with no value; a slice still reaches
	// the handler with one.
	args := []any{
		"err", errors.New("boom"),
		"dur", 1500 * time.Millisecond,
		"fn", func() {},
		"dangling",
	}
	l.Info("odd", args...)
	rec := logLines(t, &buf)[0]
	if rec["err"] != "boom" {
		t.Errorf("error field = %v, want its Error() string", rec["err"])
	}
	if rec["dur"] != float64(1500*time.Millisecond) {
		t.Errorf("duration field = %v, want nanoseconds", rec["dur"])
	}
	if s, ok := rec["fn"].(string); !ok || !strings.HasPrefix(s, "!ERROR:") {
		t.Errorf("unmarshalable value = %v, want slog's !ERROR string", rec["fn"])
	}
	if rec["!BADKEY"] != "dangling" {
		t.Errorf("dangling key = %v, want slog's !BADKEY", rec)
	}
}

func TestLoggerConcurrentNoInterleaving(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
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
