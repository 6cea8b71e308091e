// Timeline walkthrough: compile a QFT fragment and render the whole-circuit
// pulse timeline — the constructive witness of the reported latency (its
// makespan equals the weighted critical path) — together with the idle-time
// dephasing refinement under the 3×3 grid device's T2.
package main

import (
	"context"
	"fmt"
	"log"

	"paqoc/internal/bench"
	"paqoc/internal/device"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulsesim"
	"paqoc/internal/route"
	"paqoc/internal/transpile"
)

func main() {
	logical := bench.QFT(5)
	prof, err := device.Lookup("xy-grid-3x3")
	if err != nil {
		log.Fatal(err)
	}
	topo := prof.Topology()
	phys, _, err := transpile.ToPhysical(logical, topo, route.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	cfg := paqoc.DefaultConfig()
	cfg.M = paqoc.MInf
	res, err := paqoc.New(nil, topo, cfg).CompileCtx(context.Background(), phys)
	if err != nil {
		log.Fatal(err)
	}

	tl, err := res.Blocks.Timeline()
	if err != nil {
		log.Fatal(err)
	}
	if err := tl.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qft(5): %d customized gates, makespan %.0f dt (= critical path %.0f dt)\n",
		res.NumBlocks, tl.Makespan, res.Latency)
	fmt.Printf("peak concurrency: %d blocks in flight\n\n", tl.Concurrency())
	fmt.Print(tl.RenderASCII(topo.NumQubits, 32))

	idle := pulsesim.IdleDephasing(tl, topo.NumQubits, prof.T2Dt)
	fmt.Printf("\nESP %.4f × idle-dephasing %.4f → refined success estimate %.4f\n",
		res.ESP, idle, res.ESP*idle)
}
