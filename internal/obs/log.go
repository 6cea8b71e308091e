package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Level is a log severity. Records below the logger's level are dropped
// before any formatting work happens.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel maps a level name ("debug", "info", "warn", "error",
// case-insensitive) to its Level; unknown names default to info.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	}
	return LevelInfo
}

// Logger writes structured JSON records: one object per line with fixed
// "ts", "level", and "msg" fields plus alternating key-value pairs. It is
// nil-safe — every method on a nil *Logger is a no-op — so call sites
// never guard, and its writes are serialized by one mutex so concurrent
// jobs never interleave partial lines.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
}

// NewLogger returns a logger writing JSON lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	if w == nil {
		w = io.Discard
	}
	return &Logger{w: w, level: level}
}

// NewStderrLogger is the default production logger: JSON lines on stderr.
func NewStderrLogger(level Level) *Logger {
	return NewLogger(os.Stderr, level)
}

// Enabled reports whether records at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	rec := make(map[string]any, len(kv)/2+3)
	rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["level"] = level.String()
	rec["msg"] = msg
	// Non-string keys are stringified; a dangling value-less key maps to
	// null.
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		var val any
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		rec[key] = jsonSafe(val)
	}
	line, err := json.Marshal(orderedRecord(rec))
	if err != nil {
		// A value resisted even the fmt.Sprint fallback; drop the record
		// rather than corrupt the stream.
		return
	}
	l.mu.Lock()
	l.w.Write(append(line, '\n'))
	l.mu.Unlock()
}

// jsonSafe replaces values json.Marshal would reject (errors, channels,
// funcs) with printable forms so one bad field never drops a record.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case nil, bool, string, int, int32, int64, uint, uint32, uint64,
		float32, float64, time.Duration:
		if d, ok := x.(time.Duration); ok {
			return d.String()
		}
		return x
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	}
	if _, err := json.Marshal(v); err != nil {
		return fmt.Sprint(v)
	}
	return v
}

// orderedRecord renders ts/level/msg first and remaining keys sorted, so
// log lines are stable and diffable.
type orderedRecord map[string]any

func (r orderedRecord) MarshalJSON() ([]byte, error) {
	keys := make([]string, 0, len(r))
	for k := range r {
		if k == "ts" || k == "level" || k == "msg" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := append([]string{"ts", "level", "msg"}, keys...)

	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range ordered {
		v, ok := r[k]
		if !ok {
			continue
		}
		vb, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		kb, _ := json.Marshal(k)
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}
