// Crosstalk compensation: the paper argues (§II-C) that once hardware
// error terms are calibrated, "we only have to update Equation (1) and
// apply the same method". This example adds an always-on ZZ crosstalk term
// to the device Hamiltonian and compares CX pulses calibrated on the ideal
// model (degraded when replayed on the real device) against pulses
// calibrated directly on the crosstalk-aware model.
package main

import (
	"context"
	"fmt"
	"log"

	"paqoc/internal/circuit"
	"paqoc/internal/grape"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
)

func main() {
	pairs := hamiltonian.LinearChain(2)
	noisy, err := hamiltonian.XYTransmon(2, pairs).
		WithZZCrosstalk(pairs, 3*hamiltonian.TypicalZZCrosstalk)
	if err != nil {
		log.Fatal(err)
	}
	ideal := noisy.IdealTwin()
	target := quantum.MatCX.Clone()
	c := circuit.New(2)
	c.Add("cx", 0, 1)
	cx := pulse.NewCustomGate(c.Gates)
	// Each search starts at the analytical model's duration for CX, as a
	// grape.Generator's cold search does.
	opts := grape.DefaultOptions()
	opts.HintSlices = grape.PriorSlices(ideal, nil, cx)

	naive, _, naiveFid, err := grape.MinimumTimeCtx(context.Background(), ideal, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	// Replay the ideal-calibrated pulse on the noisy hardware.
	u := linalg.Identity(4)
	amps := make([]float64, len(noisy.Controls))
	for j := 0; j < naive.NumSlices(); j++ {
		for k := range amps {
			amps[k] = naive.Amps[k][j]
		}
		u = noisy.Propagator(amps, naive.SliceDt).Mul(u)
	}
	onHW := linalg.TraceFidelity(target, u)

	opts.HintSlices = grape.PriorSlices(noisy, nil, cx)
	awareSched, awareLat, awareFid, err := grape.MinimumTimeCtx(context.Background(), noisy, target, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("CX under 3× typical always-on ZZ crosstalk:")
	fmt.Printf("  ideal-calibrated pulse:  %.6f in calibration, %.6f on hardware\n", naiveFid, onHW)
	fmt.Printf("  crosstalk-aware pulse:   %.6f on hardware (%.0f dt)\n", awareFid, awareLat)
	fmt.Println("\ncrosstalk-aware CX drive channels:")
	fmt.Print(awareSched.RenderASCII())
}
