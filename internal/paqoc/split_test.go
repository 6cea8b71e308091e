package paqoc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

// stubGenerator gives every block 10 dt per gate. With rejectMerged it
// refuses every multi-gate block the way GRAPE refuses a merge it cannot
// realize within its duration budget.
type stubGenerator struct{ rejectMerged bool }

func (g stubGenerator) GenerateCtx(_ context.Context, cg *pulse.CustomGate, _ float64) (*pulse.Generated, error) {
	if g.rejectMerged && len(cg.Gates) > 1 {
		return nil, fmt.Errorf("stub: %d gates: %w", len(cg.Gates), pulse.ErrFidelityUnreachable)
	}
	return &pulse.Generated{Latency: 10 * float64(len(cg.Gates)), Fidelity: 1}, nil
}

// wireOrder lists, per qubit, the gates that touch it in program order.
func wireOrder(c *circuit.Circuit) [][]string {
	wires := make([][]string, c.NumQubits)
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			wires[q] = append(wires[q], g.String())
		}
	}
	return wires
}

// TestEmitSplitsUnreachableMergedBlock: when the generator cannot realize
// a merged block, the compile still succeeds. The block is emitted as its
// gates, per-wire gate order is unchanged, the latency is the critical
// path of the split blocks, and paqoc.emit.split_fallbacks counts the
// split block.
func TestEmitSplitsUnreachableMergedBlock(t *testing.T) {
	c := circuit.New(2)
	c.Add("h", 0)
	c.Add("cx", 0, 1)
	c.AddParam("rz", []float64{0.4}, 1)
	topo := topology.Line(2)

	accepted, err := New(stubGenerator{}, topo, DefaultConfig()).CompileCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, b := range accepted.Blocks.Blocks {
		if len(b.Gates) > 1 {
			merged++
		}
	}
	if merged != 1 {
		t.Fatalf("accepting generator left %d merged blocks, want 1: the test circuit no longer exercises one split", merged)
	}

	o := obs.New()
	res, err := New(stubGenerator{rejectMerged: true}, topo, DefaultConfig()).CompileCtx(o.Attach(context.Background()), c)
	if err != nil {
		t.Fatalf("compile failed instead of splitting the unreachable block: %v", err)
	}
	if res.NumBlocks != len(c.Gates) {
		t.Fatalf("%d blocks after the split, want one per gate (%d)", res.NumBlocks, len(c.Gates))
	}
	if got, want := fmt.Sprint(wireOrder(res.Blocks.Flatten())), fmt.Sprint(wireOrder(c)); got != want {
		t.Errorf("per-wire gate order changed: %s, want %s", got, want)
	}
	for _, b := range res.Blocks.Blocks {
		if b.Gen == nil || b.Latency != 10 {
			t.Errorf("block %s: pulse %v latency %v, want an emitted 10 dt pulse", b.Custom().Describe(), b.Gen, b.Latency)
		}
	}
	// h 0 → cx 0 1 → rz 1 is one dependence chain of three 10 dt pulses.
	if res.Latency != 30 || res.TotalLatency != 30 {
		t.Errorf("latency %v, total %v after the split, want 30 and 30", res.Latency, res.TotalLatency)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["paqoc.emit.split_fallbacks"]; got != 1 {
		t.Errorf("paqoc.emit.split_fallbacks = %d, want 1", got)
	}
	if got := snap.Counters["paqoc.emit.blocks"]; int(got) != res.NumBlocks {
		t.Errorf("paqoc.emit.blocks = %d, want %d (res.NumBlocks)", got, res.NumBlocks)
	}
}

// TestEmitSplitFailsOnSingleGate: the fallback covers merged blocks only.
// A generator that cannot realize a single gate still fails the compile,
// with the sentinel in the error chain.
func TestEmitSplitFailsOnSingleGate(t *testing.T) {
	c := circuit.New(1)
	c.Add("h", 0)
	_, err := New(rejectAll{}, topology.Line(1), DefaultConfig()).CompileCtx(context.Background(), c)
	if !errors.Is(err, pulse.ErrFidelityUnreachable) {
		t.Fatalf("single unreachable gate: error %v, want the sentinel in a failed compile", err)
	}
}

// rejectAll refuses every block, single gates included.
type rejectAll struct{}

func (rejectAll) GenerateCtx(context.Context, *pulse.CustomGate, float64) (*pulse.Generated, error) {
	return nil, pulse.ErrFidelityUnreachable
}

// TestEmitSplitWorkersMatchSerial: the fallback records unreachable blocks
// from every emit worker at once and splits them in block order, so a
// pooled compile splits the same blocks into the same gates as a serial
// one. Run under -race, this also exercises the shared record.
func TestEmitSplitWorkersMatchSerial(t *testing.T) {
	c := swapHeavy(5, 3)
	run := func(workers int) (*Result, int64) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		o := obs.New()
		res, err := New(stubGenerator{rejectMerged: true}, topology.Line(c.NumQubits), cfg).CompileCtx(o.Attach(context.Background()), c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, o.Metrics.Snapshot().Counters["paqoc.emit.split_fallbacks"]
	}
	serial, serialSplits := run(1)
	pooled, pooledSplits := run(4)
	if serialSplits < 2 {
		t.Fatalf("serial compile split %d blocks, want several to exercise the workers", serialSplits)
	}
	if pooledSplits != serialSplits || pooled.NumBlocks != serial.NumBlocks || pooled.Latency != serial.Latency {
		t.Fatalf("workers=4: %d splits, %d blocks, latency %v; serial: %d, %d, %v",
			pooledSplits, pooled.NumBlocks, pooled.Latency, serialSplits, serial.NumBlocks, serial.Latency)
	}
	for i, b := range serial.Blocks.Blocks {
		if got, want := pooled.Blocks.Blocks[i].Custom().Describe(), b.Custom().Describe(); got != want {
			t.Fatalf("block %d: workers=4 %s, serial %s", i, got, want)
		}
	}
}

// TestCaseIIProbeRejectsUnreachableMerge: when the Case II probe of a
// ranked merge cannot realize it, the merge is rejected and the compile
// goes on; the merged blocks that preprocessing built are split at emit.
func TestCaseIIProbeRejectsUnreachableMerge(t *testing.T) {
	c := circuit.New(5)
	for r := 0; r < 4; r++ {
		for i := 0; i+1 < 5; i++ {
			c.Add("cx", i, i+1)
		}
		for i := 0; i < 5; i++ {
			c.Add("h", i)
		}
	}
	compile := func(gen stubGenerator) (*Result, map[string]int64) {
		o := obs.New()
		res, err := New(gen, topology.Line(c.NumQubits), DefaultConfig()).CompileCtx(o.Attach(context.Background()), c)
		if err != nil {
			t.Fatalf("rejectMerged=%v: %v", gen.rejectMerged, err)
		}
		return res, o.Metrics.Snapshot().Counters
	}
	if _, counters := compile(stubGenerator{}); counters["paqoc.merge.applied"] == 0 {
		t.Fatal("accepting generator applied no ranked merge: the circuit no longer reaches the Case II probe")
	}
	res, counters := compile(stubGenerator{rejectMerged: true})
	if counters["paqoc.merge.applied"] != 0 || counters["paqoc.merge.rejected"] == 0 {
		t.Errorf("applied %d, rejected %d ranked merges; want every probed merge rejected",
			counters["paqoc.merge.applied"], counters["paqoc.merge.rejected"])
	}
	if res.NumBlocks != len(c.Gates) {
		t.Errorf("%d blocks, want one per gate (%d)", res.NumBlocks, len(c.Gates))
	}
}
