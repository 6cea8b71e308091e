package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed drifts: a
// fixed arithmetic loop takes from 0.6× to 1.5× its median time from one
// second to the next, and its mean over half a minute moves by 20%. Raw
// wall times therefore measure the neighbours as much as the program. A
// speed probe times a fixed kernel, independent of the program's code,
// throughout the measured part of the run; the end-to-end times are then
// scaled to the host speed at which the kernel takes refKernelSeconds:
//
//	reported = measured × refKernelSeconds / median kernel time
//
// A change to the program moves the measured times and not the kernel, so
// it shows in full; a slow or busy host moves both and cancels out.
const (
	// refKernelSeconds is near the kernel's median thread CPU time on a
	// busy core of the 2-core Xeon host the benchmark was written on
	// (0.85–0.95 ms; about 1.4 ms in the slow spells).
	refKernelSeconds = 1.0e-3
	// probePasses is how many passes a batch workload times before and
	// after each compile.
	probePasses = 3
	// probeEvery is the pause between timed kernel passes, and
	// probeWarmPasses the untimed passes before each.
	probeEvery      = 100 * time.Millisecond
	probeWarmPasses = 2
)

// speedProbe collects timed kernel passes. Each vCPU of the host slows
// down on its own, for seconds at a time, so the batch workloads time the
// kernel inline on the goroutine that compiles (sample); serve_replay, whose
// work runs on server workers, samples from a background goroutine.
type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample
	sink    float64 // keeps the kernel's result live
	quit    chan struct{}
	done    chan struct{}
}

// probeSample is one timed kernel pass.
type probeSample struct {
	at   time.Time // when the pass ended
	secs float64   // its thread CPU time
}

// hostSpeed is the current run's probe.
var hostSpeed = &speedProbe{}

// sample times passes of the kernel on the calling goroutine's thread and
// returns their median. Thread CPU time excludes time the thread waits for
// a core, so busy server workers do not read as a slow host.
func (p *speedProbe) sample(passes int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ps := make([]probeSample, passes)
	ds := make([]float64, passes)
	var sink float64
	for k := range ps {
		c0 := threadCPU()
		sink += speedKernel()
		ds[k] = (threadCPU() - c0).Seconds()
		ps[k] = probeSample{time.Now(), ds[k]}
	}
	p.mu.Lock()
	p.samples = append(p.samples, ps...)
	p.sink += sink
	p.mu.Unlock()
	return quantile(ds, 0.5)
}

// local is the slowdown on the calling goroutine's core right now.
func (p *speedProbe) local() float64 {
	return p.sample(probePasses) / refKernelSeconds
}

// background samples every probeEvery until stop.
func (p *speedProbe) background() {
	p.quit, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			// A core woken from idle runs the first passes slowly; only a
			// warm pass counts.
			var sink float64
			for range probeWarmPasses {
				sink += speedKernel()
			}
			p.mu.Lock()
			p.sink += sink
			p.mu.Unlock()
			p.sample(1)
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
		}
	}()
}

// stop ends background sampling and waits for its goroutine.
func (p *speedProbe) stop() {
	if p.quit != nil {
		close(p.quit)
		<-p.done
		p.quit = nil
	}
}

// slowdown is the host's slowdown over the run: the median kernel time
// over refKernelSeconds (1 when nothing was sampled).
func (p *speedProbe) slowdown() float64 {
	return p.slowdownBetween(time.Time{}, time.Now().Add(time.Hour))
}

// slowdownBetween is the host's slowdown from the passes that ended within
// probeEvery of the interval [from, to], or over the whole run when none
// did.
func (p *speedProbe) slowdownBetween(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ds, all []float64
	for _, s := range p.samples {
		all = append(all, s.secs)
		if !s.at.Before(from.Add(-probeEvery)) && !s.at.After(to.Add(probeEvery)) {
			ds = append(ds, s.secs)
		}
	}
	if len(ds) == 0 {
		ds = all
	}
	if len(ds) == 0 {
		return 1
	}
	return quantile(ds, 0.5) / refKernelSeconds
}

// speedKernel is the probe's fixed work: complex 8×8 products and sines,
// the arithmetic of the GRAPE propagators and the Weyl-coordinate search,
// written here so that no change to the program can move it.
func speedKernel() float64 {
	var m [8][8]complex128
	for i := range m {
		for j := range m[i] {
			m[i][j] = complex(math.Sin(float64(8*i+j)), math.Cos(float64(i-j))) / 8
		}
	}
	var acc float64
	for it := 0; it < 800; it++ {
		var p [8][8]complex128
		for i := range p {
			for k := range m {
				a := m[i][k]
				for j := range p[i] {
					p[i][j] += a * m[k][j]
				}
			}
		}
		for i := range p {
			acc += math.Sin(real(p[i][(i+it)%8]) + float64(it))
		}
	}
	return acc
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
