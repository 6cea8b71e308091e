package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects finished spans. Safe for concurrent use; spans from
// concurrent goroutines interleave on the shared timeline.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// SpanRecord is one finished span on the tracer's timeline.
type SpanRecord struct {
	Name  string
	Path  string // slash-joined ancestry, e.g. "paqoc.compile/paqoc.optimize"
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// Attr is a span attribute tag.
type Attr struct {
	Key string
	Val any
}

// Span is an in-flight span. A nil *Span is a valid no-op target, so
// callers never need to guard instrumentation sites.
type Span struct {
	tracer *Tracer
	name   string
	path   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// NewTracer returns a tracer whose timeline starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	metricsKey
	eventsKey
)

// WithTracer installs the tracer into the context.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithMetrics installs the registry into the context.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, metricsKey, r)
}

// MetricsFrom returns the context's registry, or nil — and a nil registry
// hands out nil (no-op) instruments, so call sites never branch.
func MetricsFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey).(*Registry)
	return r
}

// StartSpan opens a span named name nested under the context's current
// span, returning a derived context carrying the new span. Without a
// tracer in the context it returns (ctx, nil) and costs two map lookups.
// End the returned span with Span.End (nil-safe).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	path := name
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		path = parent.path + "/" + name
	}
	s := &Span{tracer: t, name: name, path: path, start: time.Now()}
	return context.WithValue(ctx, spanKey, s), s
}

// SetAttr tags the span with a key/value pair. No-op on nil.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// End finishes the span and records it on the tracer. Ending twice (or
// ending a nil span) is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{
		Name:  s.name,
		Path:  s.path,
		Start: s.start.Sub(s.tracer.epoch),
		Dur:   end.Sub(s.start),
		Attrs: attrs,
	}
	s.tracer.mu.Lock()
	s.tracer.spans = append(s.tracer.spans, rec)
	s.tracer.mu.Unlock()
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// chromeEvent is one Chrome trace-event-format "complete" event. The
// about:tracing and Perfetto viewers infer nesting from duration
// containment within a (pid, tid) track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes all finished spans in the Chrome trace event
// format (load the file at chrome://tracing or ui.perfetto.dev).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "paqoc",
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  1,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// StageSummary aggregates spans sharing a path: how often the stage ran
// and how much wall time it consumed.
type StageSummary struct {
	Path  string
	Count int
	Total time.Duration
}

// Summary aggregates finished spans by path, ordered by first start time,
// for the per-stage breakdown the CLI prints on completion.
func (t *Tracer) Summary() []StageSummary {
	spans := t.Spans()
	first := map[string]time.Duration{}
	agg := map[string]*StageSummary{}
	for _, s := range spans {
		a := agg[s.Path]
		if a == nil {
			a = &StageSummary{Path: s.Path}
			agg[s.Path] = a
			first[s.Path] = s.Start
		}
		a.Count++
		a.Total += s.Dur
		if s.Start < first[s.Path] {
			first[s.Path] = s.Start
		}
	}
	out := make([]StageSummary, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if first[out[i].Path] != first[out[j].Path] {
			return first[out[i].Path] < first[out[j].Path]
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// WriteSummary renders the per-stage table: one line per span path,
// indented by nesting depth, with run counts and cumulative wall time.
func (t *Tracer) WriteSummary(w io.Writer) {
	for _, s := range t.Summary() {
		depth := 0
		for _, c := range s.Path {
			if c == '/' {
				depth++
			}
		}
		name := s.Path
		if i := lastSlash(s.Path); i >= 0 {
			name = s.Path[i+1:]
		}
		fmt.Fprintf(w, "  %-*s%-*s %6d× %12s\n", 2*depth, "", 36-2*depth, name, s.Count, s.Total.Round(time.Microsecond))
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
