package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels is the ladder tailLevel picks from, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted xs and
// the number of samples above it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	k := rank(len(sorted), p)
	return sorted[k-1], len(sorted) - k
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples. The epsilon keeps float error (99.9% of 10000 is
// 9990.000000000002) from bumping it.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailLevel returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it, or 0 when even the median
// leaves fewer (n < 20). Each workload passes the smallest sample count
// a run can have, so its tail level is fixed and every run, however
// many samples it gathers, reports the same percentile.
func tailLevel(n int) float64 {
	for _, l := range tailLevels {
		if n-rank(n, l) >= minBeyond {
			return l
		}
	}
	return 0
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vmHWM returns this process's peak resident set (VmHWM) in kB, or 0
// where /proc is unavailable.
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// cpuTime is this process's CPU time so far, user plus system, over
// all threads. Unlike wall time it does not count time the host
// steals from the guest or time spent runnable but descheduled.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetHWM restarts this process's VmHWM count from its current
// resident set (Linux clear_refs 5), so a peak can be read per pass.
func resetHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
