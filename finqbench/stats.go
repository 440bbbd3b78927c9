package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile of ascending samples. It
// refuses a quantile with fewer than ten samples beyond it: p99 needs at
// least 1000 samples, the median at least 20.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if float64(n)*(1-p) < 10-1e-9 {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", 100*p, int(math.Ceil(10/(1-p)-1e-9)), n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], nil
}

// median returns the middle of a few samples (the mean of the middle two
// for an even count); it sorts its argument.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuSamples are the runtime's estimates of CPU seconds spent in garbage
// collection and in total.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func cpuSeconds() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// heapAllocs is the process's cumulative count of heap objects allocated.
var heapAllocsSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(heapAllocsSample)
	return heapAllocsSample[0].Value.Uint64()
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set (Linux /proc/<pid>/clear_refs, value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
