package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"paqoc/internal/obs"
)

func TestSerialRunsInlineInOrder(t *testing.T) {
	g, _ := WithContext(context.Background(), 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		g.Go(func(ctx context.Context) error {
			order = append(order, i) // no lock: serial mode runs inline
			return nil
		})
		if len(order) != i+1 {
			t.Fatalf("task %d not run inline", i)
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSerialSkipsAfterFirstError(t *testing.T) {
	g, _ := WithContext(context.Background(), 0)
	ran := 0
	boom := errors.New("boom")
	g.Go(func(ctx context.Context) error { ran++; return nil })
	g.Go(func(ctx context.Context) error { ran++; return boom })
	g.Go(func(ctx context.Context) error { ran++; return nil })
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d tasks after error, want 2 (stop at first error)", ran)
	}
}

func TestPooledBoundsConcurrency(t *testing.T) {
	const workers = 3
	g, _ := WithContext(context.Background(), workers)
	var cur, max atomic.Int64
	for i := 0; i < 20; i++ {
		g.Go(func(ctx context.Context) error {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent tasks, cap is %d", m, workers)
	}
}

func TestFirstErrorCancelsContext(t *testing.T) {
	g, gctx := WithContext(context.Background(), 4)
	boom := errors.New("boom")
	started := make(chan struct{})
	g.Go(func(ctx context.Context) error {
		<-started
		return boom
	})
	g.Go(func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // must be released by the sibling's failure
		return ctx.Err()
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want first error", err)
	}
	if gctx.Err() == nil {
		t.Error("group context not cancelled after Wait")
	}
}

func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g, _ := WithContext(context.Background(), workers)
		g.Go(func(ctx context.Context) error { panic("kaboom") })
		err := g.Wait()
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: panic not captured: %v", workers, err)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 8} {
		n := 50
		seen := make([]atomic.Int64, n)
		err := ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, seen[i].Load())
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Index 7 fails first in time, index 2 fails later (but is already
	// running, so it cannot be dropped); the reported error must still be
	// index 2's, independent of completion timing.
	started := make(chan struct{})
	release := make(chan struct{})
	err := ForEach(context.Background(), 4, 10, func(ctx context.Context, i int) error {
		switch i {
		case 2:
			close(started)
			<-release
			return fmt.Errorf("err-2")
		case 7:
			<-started
			close(release)
			return fmt.Errorf("err-7")
		}
		return nil
	})
	if err == nil || err.Error() != "err-2" {
		t.Fatalf("err = %v, want err-2 (lowest index)", err)
	}
}

func TestMetricsGaugeAndCounter(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	g, _ := WithContext(ctx, 2)
	for i := 0; i < 6; i++ {
		g.Go(func(ctx context.Context) error { return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("engine.tasks").Value(); v != 6 {
		t.Errorf("engine.tasks = %d, want 6", v)
	}
	if v := reg.Counter("engine.completed").Value(); v != 6 {
		t.Errorf("engine.completed = %d, want 6", v)
	}
	for _, name := range []string{"engine.active_workers", "engine.queued"} {
		if v := reg.Gauge(name).Value(); v != 0 {
			t.Errorf("%s = %v after Wait, want 0", name, v)
		}
	}
	if v := reg.Gauge("engine.active_workers.peak").Value(); v < 1 || v > 2 {
		t.Errorf("engine.active_workers.peak = %v, want in [1,2]", v)
	}
}

// TestPoolHealthGaugesCompose checks that two concurrently live groups
// sharing a registry produce additive gauges: while both hold a running
// task, engine.active_workers reads 2, and it returns to 0 after both
// groups drain.
func TestPoolHealthGaugesCompose(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	g1, _ := WithContext(ctx, 2)
	g2, _ := WithContext(ctx, 2)
	bothRunning := make(chan struct{}, 2)
	release := make(chan struct{})
	task := func(ctx context.Context) error {
		bothRunning <- struct{}{}
		<-release
		return nil
	}
	g1.Go(task)
	g2.Go(task)
	<-bothRunning
	<-bothRunning
	if v := reg.Gauge("engine.active_workers").Value(); v != 2 {
		t.Errorf("engine.active_workers = %v with two live groups, want 2", v)
	}
	close(release)
	if err := g1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := g2.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("engine.active_workers").Value(); v != 0 {
		t.Errorf("engine.active_workers = %v after both Waits, want 0", v)
	}
	if v := reg.Gauge("engine.active_workers.peak").Value(); v < 2 {
		t.Errorf("engine.active_workers.peak = %v, want ≥ 2", v)
	}
	if v := reg.Counter("engine.completed").Value(); v != 2 {
		t.Errorf("engine.completed = %d, want 2", v)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	// No metrics in the context: the pool must run fine on nil instruments.
	g, _ := WithContext(context.Background(), 2)
	ran := atomic.Int64{}
	for i := 0; i < 4; i++ {
		g.Go(func(ctx context.Context) error { ran.Add(1); return nil })
	}
	if err := g.Wait(); err != nil || ran.Load() != 4 {
		t.Fatalf("ran=%d err=%v", ran.Load(), err)
	}
}
