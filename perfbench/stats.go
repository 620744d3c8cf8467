package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// tail returns the highest whole percentile that has at least tailBeyond
// samples strictly beyond its nearest-rank position, with that percentile.
// ok is false when there are too few samples for any percentile above the
// median to qualify.
func tail(xs []float64) (v float64, pct int, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for p := 99; p >= 50; p-- {
		k := rankIndex(float64(p), n)
		if n-1-k >= tailBeyond {
			return s[k], p, true
		}
	}
	return 0, 0, false
}

// tailOrMedian reports the tail when it exists and the median, named as p50,
// when there are too few samples for one.
func tailOrMedian(xs []float64) (float64, int) {
	if v, p, ok := tail(xs); ok {
		return v, p
	}
	return median(xs), 50
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// timeBatches calls f in the given number of batches, each repeating f until
// at least batch has passed, and returns every batch's mean time per call in
// seconds.
func timeBatches(batches int, batch time.Duration, f func()) []float64 {
	out := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		calls := 0
		t0 := time.Now()
		var el time.Duration
		for el < batch {
			f()
			calls++
			el = time.Since(t0)
		}
		out = append(out, el.Seconds()/float64(calls))
	}
	return out
}
