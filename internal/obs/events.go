package obs

import (
	"context"
	"sync"
	"time"
)

// Event is one entry on a job's live event stream: a pipeline stage
// transition, a sampled GRAPE convergence point, or a job state change.
// Seq is assigned by the ring and strictly increases per job, so clients
// can detect drops.
type Event struct {
	Seq   uint64  `json:"seq"`
	Type  string  `json:"type"` // "stage" | "convergence" | "state"
	TsMs  float64 `json:"ts_ms"`
	Stage string  `json:"stage,omitempty"` // stage events: stage name
	State string  `json:"state,omitempty"` // state events: new job state
	Gate  string  `json:"gate,omitempty"`  // convergence events: gate label

	// Backend names the device profile a job compiles against (state
	// events published by the job lifecycle; empty elsewhere).
	Backend string `json:"backend,omitempty"`

	// Convergence payload (convergence events only).
	Iter     int     `json:"iter,omitempty"`
	Fidelity float64 `json:"fidelity,omitempty"`
	GradNorm float64 `json:"grad_norm,omitempty"`

	// Stage payload: duration of a completed stage (0 on entry events).
	DurMs float64 `json:"dur_ms,omitempty"`

	Err string `json:"error,omitempty"` // terminal failure message
}

// ConvergencePoint is one iteration of a gradient-ascent optimization.
type ConvergencePoint struct {
	Iter     int     `json:"iter"`
	Fidelity float64 `json:"fidelity"`
	GradNorm float64 `json:"grad_norm"` // L2 norm over all controls/slices
	StepSize float64 `json:"step_size"` // largest |ADAM step| this iteration
}

// Event type tags.
const (
	EventStage       = "stage"
	EventConvergence = "convergence"
	EventState       = "state"
)

// EventRing is a bounded publish/subscribe buffer for one job's events.
// Publishers (pipeline stages, GRAPE iteration hooks) append without
// blocking; subscribers (SSE handlers) receive the retained history plus
// live events. When the ring is full the oldest events are dropped (the
// gap shows in Seq), and a subscriber whose channel is full misses events
// rather than stalling the compilation.
//
// All channel sends and closes happen under the ring's mutex, so Publish,
// Subscribe, cancel, and Close never race a send against a close.
type EventRing struct {
	epoch time.Time

	mu     sync.Mutex
	buf    []Event // ring storage, len == cap once full
	start  int     // index of oldest event
	count  int     // events currently retained
	seq    uint64
	closed bool
	subs   map[*eventSub]struct{}
}

type eventSub struct {
	ch chan Event
}

// NewEventRing returns a ring retaining at most capacity events (minimum
// 16). A nil *EventRing is a valid no-op publisher.
func NewEventRing(capacity int) *EventRing {
	if capacity < 16 {
		capacity = 16
	}
	return &EventRing{
		epoch: time.Now(),
		buf:   make([]Event, 0, capacity),
		subs:  make(map[*eventSub]struct{}),
	}
}

// Publish appends an event, stamping Seq and TsMs, and fans it out to
// subscribers. No-op on a nil or closed ring.
func (r *EventRing) Publish(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.seq++
	ev.Seq = r.seq
	ev.TsMs = float64(time.Since(r.epoch)) / float64(time.Millisecond)

	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		r.count++
	} else {
		if r.count == len(r.buf) {
			// Full: overwrite the oldest slot.
			r.buf[r.start] = ev
			r.start = (r.start + 1) % len(r.buf)
		} else {
			r.buf[(r.start+r.count)%len(r.buf)] = ev
			r.count++
		}
	}
	for s := range r.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow subscriber: skip rather than block the pipeline.
		}
	}
}

// Subscribe returns the retained history and a channel of subsequent live
// events, atomically — no event falls between the two. The channel is
// closed when the ring closes (job reaches a terminal state) and must be
// released with cancel when the subscriber leaves early. On a nil ring it
// returns (nil, nil, no-op).
func (r *EventRing) Subscribe(buffer int) (history []Event, live <-chan Event, cancel func()) {
	if r == nil {
		return nil, nil, func() {}
	}
	if buffer < 1 {
		buffer = 64
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	history = make([]Event, 0, r.count)
	for i := 0; i < r.count; i++ {
		history = append(history, r.buf[(r.start+i)%len(r.buf)])
	}
	if r.closed {
		ch := make(chan Event)
		close(ch)
		return history, ch, func() {}
	}
	s := &eventSub{ch: make(chan Event, buffer)}
	r.subs[s] = struct{}{}
	return history, s.ch, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[s]; ok {
			delete(r.subs, s)
			close(s.ch)
		}
	}
}

// Close marks the stream complete and closes all subscriber channels.
// Publish after Close is a no-op; Close is idempotent.
func (r *EventRing) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for s := range r.subs {
		delete(r.subs, s)
		close(s.ch)
	}
}

// PublishStage records a completed pipeline stage with its wall time.
func (r *EventRing) PublishStage(stage string, dur time.Duration) {
	r.Publish(Event{Type: EventStage, Stage: stage, DurMs: float64(dur) / float64(time.Millisecond)})
}

// PublishConvergence records a sampled GRAPE iteration for one gate.
func (r *EventRing) PublishConvergence(gate string, p ConvergencePoint) {
	r.Publish(Event{Type: EventConvergence, Gate: gate, Iter: p.Iter, Fidelity: p.Fidelity, GradNorm: p.GradNorm})
}

// WithEvents returns a context carrying the event ring; EventsFrom
// retrieves it (nil when absent — and a nil ring is a no-op publisher, so
// pipeline code publishes unconditionally).
func WithEvents(ctx context.Context, r *EventRing) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, eventsKey, r)
}

// EventsFrom returns the event ring carried by ctx, or nil.
func EventsFrom(ctx context.Context) *EventRing {
	r, _ := ctx.Value(eventsKey).(*EventRing)
	return r
}
