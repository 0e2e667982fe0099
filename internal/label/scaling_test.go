//go:build unix

package label

import (
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"systolic/internal/model"
)

// cpuTime returns the CPU time the process has used so far. Unlike
// wall-clock time it does not grow when other processes, such as the
// tests of other packages, compete for the CPUs.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestAssignScaling gates the growth of labeling cost with program
// size as a ratio of two measurements in one process, so it holds on
// any host: from the 512- to the 4096-wide sorting network (8x the
// messages), Assign's CPU time may grow at most as messages^1.5. A
// quadratic scheme measures about 2. The two sizes are timed
// alternately and each keeps its cheapest run. The collector is off
// while they run (the runs allocate about 35 MB in all), so the ratio
// measures the algorithm, not how often a growing heap is scanned.
func TestAssignScaling(t *testing.T) {
	small, large := sortnet(t, 512, 3), sortnet(t, 4096, 3)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	progs := []*model.Program{small, large}
	best := []time.Duration{math.MaxInt64, math.MaxInt64}
	for range 5 {
		for i, p := range progs {
			start := cpuTime(t)
			if _, err := Assign(p, Options{}); err != nil {
				t.Fatal(err)
			}
			best[i] = min(best[i], cpuTime(t)-start)
		}
	}
	exp := math.Log(float64(best[1])/float64(best[0])) /
		math.Log(float64(large.NumMessages())/float64(small.NumMessages()))
	t.Logf("Assign CPU time: %d messages %v, %d messages %v, exponent %.2f",
		small.NumMessages(), best[0], large.NumMessages(), best[1], exp)
	if exp > 1.5 {
		t.Errorf("labeling cost grows as messages^%.2f, want at most 1.5", exp)
	}
}
