// Package engine is the concurrent compilation core shared by the pulse
// emission layers (internal/paqoc, internal/accqoc) and the experiment
// sweeps (internal/experiments): a bounded worker pool with context
// cancellation, first-error capture, and panic recovery, built on the
// standard library only.
//
// The pool is deliberately deterministic at workers ≤ 1: Go runs the task
// inline, in submission order, and skips remaining tasks after the first
// error — byte-for-byte the behaviour of the serial loops it replaced. At
// workers > 1, tasks run on at most `workers` goroutines; callers that need
// deterministic output collect results into pre-indexed slots (each task
// owns its index) and reduce them in submission order after Wait.
//
// When the context carries an obs metrics registry, the pool maintains the
// engine.active_workers gauge (currently running tasks), the engine.queued
// gauge (tasks blocked waiting for a worker slot), their .peak high-water
// marks, and the engine.tasks / engine.completed counters. All pools
// sharing one registry update the same instruments via atomic deltas, so
// the gauges reflect process-wide saturation even when several groups are
// live at once.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"paqoc/internal/obs"
)

// Group is a bounded worker pool bound to a context. Create one with
// WithContext; Go submits tasks and Wait joins them. A Group must not be
// reused after Wait returns.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc

	sem chan struct{} // nil in serial mode
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error

	active     *obs.Gauge
	activePeak *obs.Gauge
	queued     *obs.Gauge
	queuedPeak *obs.Gauge
	tasks      *obs.Counter
	completed  *obs.Counter
	taskMs     *obs.Histogram
}

// WithContext returns a Group running at most `workers` tasks concurrently
// and the context its tasks receive, which is cancelled on the first task
// error (or panic) and when Wait returns. workers ≤ 1 selects serial mode:
// tasks execute inline inside Go, in submission order.
func WithContext(ctx context.Context, workers int) (*Group, context.Context) {
	gctx, cancel := context.WithCancel(ctx)
	reg := obs.MetricsFrom(ctx)
	g := &Group{
		ctx:        gctx,
		cancel:     cancel,
		active:     reg.Gauge("engine.active_workers"),
		activePeak: reg.Gauge("engine.active_workers.peak"),
		queued:     reg.Gauge("engine.queued"),
		queuedPeak: reg.Gauge("engine.queued.peak"),
		tasks:      reg.Counter("engine.tasks"),
		completed:  reg.Counter("engine.completed"),
		taskMs:     reg.Histogram("engine.task_ms", obs.LatencyBuckets),
	}
	if workers > 1 {
		g.sem = make(chan struct{}, workers)
	}
	return g, gctx
}

// Go submits one task. In serial mode the task runs before Go returns; in
// pooled mode Go blocks until a worker slot is free (bounding both
// concurrency and the scheduling backlog). After the group has recorded an
// error the task is dropped — the serial loops this replaces stop at the
// first error, and pooled callers are already being cancelled.
func (g *Group) Go(fn func(ctx context.Context) error) {
	if g.failed() {
		return
	}
	if g.sem == nil {
		g.run(fn)
		return
	}
	g.queuedPeak.Max(g.queued.Add(+1))
	g.sem <- struct{}{}
	g.queued.Add(-1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.sem }()
		if g.failed() {
			return
		}
		g.run(fn)
	}()
}

// Wait joins every submitted task, cancels the group context, and returns
// the first recorded error.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *Group) failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

func (g *Group) run(fn func(ctx context.Context) error) {
	g.tasks.Inc()
	g.track(+1)
	if g.taskMs != nil {
		start := time.Now()
		defer func() {
			g.taskMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}()
	}
	defer g.completed.Inc()
	defer g.track(-1)
	defer func() {
		if r := recover(); r != nil {
			g.fail(fmt.Errorf("engine: task panic: %v\n%s", r, debug.Stack()))
		}
	}()
	if err := fn(g.ctx); err != nil {
		g.fail(err)
	}
}

func (g *Group) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cancel()
}

// track adjusts the running-task gauges by atomic delta so groups sharing
// a registry compose: the gauges read as process-wide totals, not the last
// group's private count.
func (g *Group) track(delta float64) {
	g.activePeak.Max(g.active.Add(delta))
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded pool and
// returns the lowest-index error (not the temporally first), so the
// reported failure is deterministic for a fixed input regardless of worker
// count.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	g, _ := WithContext(ctx, workers)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		g.Go(func(ctx context.Context) error {
			errs[i] = fn(ctx, i)
			return errs[i]
		})
	}
	err := g.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return err
}
