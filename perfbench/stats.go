package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDuration times fn reps times and returns the median duration.
func medianDuration(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
	}
}

// gcShare is the share of CPU time the garbage collector used between two
// samples.
func gcShare(a, b runtimeSample) float64 {
	return ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sourceDigest identifies the compiled program when no commit is known: a
// sha256 over go.mod and every Go file under internal/, found from the
// working directory or its parent.
func sourceDigest() string {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "internal")); err != nil {
			continue
		}
		h := sha256.New()
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			if d.IsDir() {
				if rel != "." && rel != "internal" && !strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
					return filepath.SkipDir
				}
				return nil
			}
			if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(rel))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "unknown"
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	return "unknown"
}
