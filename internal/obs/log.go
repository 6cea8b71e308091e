package obs

import (
	"io"
	"log/slog"
	"strings"
	"time"
)

// LevelError is slog.LevelError. It stays under this name only because
// the benchmark harness (perfbench/serve.go) passes obs.LevelError to
// NewLogger; other code names slog's levels directly.
const LevelError = slog.LevelError

// NewLogger returns the service logger: one JSON object per line on w,
// for records at or above level. Every record opens with "ts" (RFC 3339
// with nanoseconds, UTC), a lower-case "level" and "msg", followed by the
// call's key-value pairs in call order. The handler serializes writes, so
// concurrent jobs never interleave partial lines.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		// A caller's own "time" or "level" pair of another type passes
		// through unchanged.
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime {
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			}
			if l, ok := a.Value.Any().(slog.Level); ok && a.Key == slog.LevelKey {
				return slog.String(slog.LevelKey, strings.ToLower(l.String()))
			}
			return a
		},
	}))
}
