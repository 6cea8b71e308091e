package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestEventRingPublishSubscribe(t *testing.T) {
	r := NewEventRing(32)
	r.PublishStage("route", 2*time.Millisecond)
	r.PublishStage("mine", 5*time.Millisecond)

	history, live, cancel := r.Subscribe(16)
	defer cancel()
	if len(history) != 2 || history[0].Stage != "route" || history[1].Stage != "mine" {
		t.Fatalf("history = %+v", history)
	}
	if history[0].Seq != 1 || history[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", history[0].Seq, history[1].Seq)
	}

	r.PublishConvergence("CZ q0 q1", ConvergencePoint{Iter: 25, Fidelity: 0.99, GradNorm: 1e-3})
	select {
	case ev := <-live:
		if ev.Type != EventConvergence || ev.Gate != "CZ q0 q1" || ev.Iter != 25 || ev.Seq != 3 {
			t.Errorf("live event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("live event not delivered")
	}
}

func TestEventRingCloseSemantics(t *testing.T) {
	r := NewEventRing(16)
	r.Publish(Event{Type: EventState, State: "queued"})
	_, live, cancel := r.Subscribe(4)
	defer cancel()

	r.Close()
	if _, open := <-live; open {
		t.Error("subscriber channel must close when the ring closes")
	}
	r.Publish(Event{Type: EventStage}) // no-op, must not panic
	r.Close()                          // idempotent

	// A late subscriber still gets history, plus an already-closed channel.
	history, late, lateCancel := r.Subscribe(4)
	defer lateCancel()
	if len(history) != 1 || history[0].State != "queued" {
		t.Errorf("late history = %+v", history)
	}
	if _, open := <-late; open {
		t.Error("late subscriber channel must be pre-closed")
	}
}

func TestEventRingBoundedHistory(t *testing.T) {
	r := NewEventRing(16)
	for i := 0; i < 40; i++ {
		r.PublishStage("s", time.Duration(i))
	}
	history, _, cancel := r.Subscribe(1)
	defer cancel()
	if len(history) != 16 {
		t.Fatalf("retained = %d, want capacity 16", len(history))
	}
	// Oldest evicted: the retained window is the last 16, in order.
	if history[0].Seq != 25 || history[15].Seq != 40 {
		t.Errorf("window = [%d, %d], want [25, 40]", history[0].Seq, history[15].Seq)
	}
}

// TestEventRingGrowsAsEventsArrive: a short job's ring holds storage for
// its own events, not for the whole capacity, and a full ring's storage
// is exactly its capacity.
func TestEventRingGrowsAsEventsArrive(t *testing.T) {
	r := NewEventRing(512)
	for i := 0; i < 10; i++ {
		r.PublishStage("s", time.Duration(i))
	}
	if c := cap(r.buf); c > 16 {
		t.Errorf("cap(buf) = %d after 10 events, want at most 16", c)
	}
	history, _, cancel := r.Subscribe(1)
	cancel()
	if len(history) != 10 || history[0].Seq != 1 || history[9].Seq != 10 {
		t.Errorf("history = %+v, want seqs 1..10", history)
	}

	for i := 10; i < 600; i++ {
		r.PublishStage("s", time.Duration(i))
	}
	if c := cap(r.buf); c != 512 {
		t.Errorf("cap(buf) = %d when full, want 512", c)
	}
	history, _, cancel = r.Subscribe(1)
	cancel()
	if len(history) != 512 || history[0].Seq != 89 || history[511].Seq != 600 {
		t.Errorf("window = %d events [%d, %d], want 512 [89, 600]", len(history), history[0].Seq, history[len(history)-1].Seq)
	}
}

func TestEventRingSlowSubscriberDoesNotBlock(t *testing.T) {
	r := NewEventRing(16)
	_, live, cancel := r.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			r.PublishStage("s", 0)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a full subscriber channel")
	}
	<-live // the one buffered event is still delivered
}

func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churning subscribers racing publishers and Close exercises the
	// send-vs-close discipline; run under -race this is the real test.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, live, cancel := r.Subscribe(2)
				if live != nil {
					select {
					case <-live:
					default:
					}
				}
				cancel()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.PublishStage("s", time.Duration(i))
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	r.Close()
	close(stop)
	wg.Wait()
}

func TestNilEventRingIsNoOp(t *testing.T) {
	var r *EventRing
	r.PublishStage("s", time.Millisecond)
	r.PublishConvergence("g", ConvergencePoint{})
	r.Publish(Event{Type: EventState, State: "done"})
	r.Close()
	history, live, cancel := r.Subscribe(8)
	if history != nil || live != nil {
		t.Error("nil ring Subscribe must return nil history and channel")
	}
	cancel()
}

func TestEventRingContextPlumbing(t *testing.T) {
	r := NewEventRing(16)
	ctx := WithEvents(context.Background(), r)
	if EventsFrom(ctx) != r {
		t.Error("EventsFrom must return the carried ring")
	}
	if EventsFrom(context.Background()) != nil {
		t.Error("EventsFrom on a bare context must be nil")
	}
	if WithEvents(ctx, nil) != ctx {
		t.Error("WithEvents(nil) must return ctx unchanged")
	}
}
