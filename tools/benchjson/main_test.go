package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkRunActive/wide-linear-1024-8  3  81334315 ns/op  26511 ns/sim-cycle  900 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if e.Name != "BenchmarkRunActive/wide-linear-1024-8" || e.Iterations != 3 {
		t.Fatalf("parsed %+v", e)
	}
	for unit, want := range map[string]float64{"ns/op": 81334315, "ns/sim-cycle": 26511, "allocs/op": 900} {
		if e.Metrics[unit] != want {
			t.Errorf("metric %s = %v, want %v", unit, e.Metrics[unit], want)
		}
	}
	for _, junk := range []string{
		"goos: linux",
		"PASS",
		"ok  \tsystolic\t0.7s",
		"",
		"Benchmark only-name",
	} {
		if _, ok := parseLine(junk); ok {
			t.Errorf("non-benchmark line %q parsed", junk)
		}
	}
}

func doc(entries ...entry) document {
	return document{Version: docVersion, Benchmarks: entries}
}

func bench(name string, metrics map[string]float64) entry {
	return entry{Name: name, Iterations: 1, Metrics: metrics}
}

func TestCompare(t *testing.T) {
	base := doc(
		bench("BenchmarkA-8", map[string]float64{"ns/op": 100, "allocs/op": 10, "B/op": 1000}),
		bench("BenchmarkB-8", map[string]float64{"ns/op": 200, "allocs/op": 20}),
	)

	t.Run("identical is clean", func(t *testing.T) {
		if bad := compare(base, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("violations on identical docs: %v", bad)
		}
	})

	t.Run("within tolerance is clean", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-8", map[string]float64{"ns/op": 100, "allocs/op": 11, "B/op": 1100}),
			bench("BenchmarkB-8", map[string]float64{"ns/op": 200, "allocs/op": 22}),
		)
		if bad := compare(cur, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("violations within tolerance: %v", bad)
		}
	})

	t.Run("alloc regression is flagged", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-8", map[string]float64{"ns/op": 100, "allocs/op": 12, "B/op": 1000}),
			bench("BenchmarkB-8", map[string]float64{"ns/op": 200, "allocs/op": 20}),
		)
		bad := compare(cur, base, 0.10, 0)
		if len(bad) != 1 || !strings.Contains(bad[0], "allocs/op regressed") {
			t.Errorf("want one allocs/op regression, got %v", bad)
		}
	})

	t.Run("timing noise is not compared", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-8", map[string]float64{"ns/op": 100000, "allocs/op": 10, "B/op": 1000}),
			bench("BenchmarkB-8", map[string]float64{"ns/op": 900000, "allocs/op": 20}),
		)
		if bad := compare(cur, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("timing-only change flagged: %v", bad)
		}
	})

	t.Run("missing benchmark is flagged", func(t *testing.T) {
		cur := doc(bench("BenchmarkA-8", map[string]float64{"allocs/op": 10, "B/op": 1000}))
		bad := compare(cur, base, 0.10, 0)
		if len(bad) != 1 || !strings.Contains(bad[0], "not in current run") {
			t.Errorf("want one missing-benchmark violation, got %v", bad)
		}
	})

	t.Run("missing metric is flagged", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-8", map[string]float64{"ns/op": 100}),
			bench("BenchmarkB-8", map[string]float64{"ns/op": 200, "allocs/op": 20}),
		)
		bad := compare(cur, base, 0.10, 0)
		if len(bad) != 2 {
			t.Errorf("want two missing-metric violations, got %v", bad)
		}
	})

	t.Run("gomaxprocs suffix is normalized", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-4", map[string]float64{"allocs/op": 10, "B/op": 1000}),
			bench("BenchmarkB-4", map[string]float64{"allocs/op": 20}),
		)
		if bad := compare(cur, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("suffix mismatch flagged: %v", bad)
		}
	})

	t.Run("sub-benchmark ending in digits matches", func(t *testing.T) {
		sized := doc(bench("BenchmarkRun/wide-1024", map[string]float64{"allocs/op": 10}))
		for _, name := range []string{"BenchmarkRun/wide-1024-4", "BenchmarkRun/wide-1024"} {
			cur := doc(bench(name, map[string]float64{"allocs/op": 10}))
			if bad := compare(cur, sized, 0.10, 0); len(bad) != 0 {
				t.Errorf("%s: %v", name, bad)
			}
		}
		cur := doc(bench("BenchmarkRun/wide-512-4", map[string]float64{"allocs/op": 10}))
		if bad := compare(cur, sized, 0.10, 0); len(bad) != 1 {
			t.Errorf("different size matched the baseline: %v", bad)
		}
	})

	t.Run("extra benchmarks are fine", func(t *testing.T) {
		cur := doc(
			bench("BenchmarkA-8", map[string]float64{"allocs/op": 10, "B/op": 1000}),
			bench("BenchmarkB-8", map[string]float64{"allocs/op": 20}),
			bench("BenchmarkNew-8", map[string]float64{"allocs/op": 99999}),
		)
		if bad := compare(cur, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("new benchmark flagged: %v", bad)
		}
	})
}

// TestTimeTolerance covers the opt-in ns/sim-cycle gate: advisory at
// 0, generous-multiplier gating when set, ns/op never gated.
func TestTimeTolerance(t *testing.T) {
	base := doc(bench("BenchmarkRun-8", map[string]float64{
		"ns/op": 1000, "ns/sim-cycle": 100, "allocs/op": 10,
	}))

	t.Run("zero keeps timing advisory", func(t *testing.T) {
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/op": 9000, "ns/sim-cycle": 900, "allocs/op": 10,
		}))
		if bad := compare(cur, base, 0.10, 0); len(bad) != 0 {
			t.Errorf("timing gated without -time-tolerance: %v", bad)
		}
	})

	t.Run("within 1.5x is clean", func(t *testing.T) {
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/op": 1400, "ns/sim-cycle": 140, "allocs/op": 10,
		}))
		if bad := compare(cur, base, 0.10, 0.5); len(bad) != 0 {
			t.Errorf("in-tolerance timing flagged: %v", bad)
		}
	})

	t.Run("beyond 1.5x fails", func(t *testing.T) {
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/op": 1600, "ns/sim-cycle": 160, "allocs/op": 10,
		}))
		bad := compare(cur, base, 0.10, 0.5)
		if len(bad) != 1 || !strings.Contains(bad[0], "ns/sim-cycle regressed") {
			t.Errorf("want one ns/sim-cycle regression, got %v", bad)
		}
	})

	t.Run("ns/op is never gated", func(t *testing.T) {
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/op": 99000, "ns/sim-cycle": 100, "allocs/op": 10,
		}))
		if bad := compare(cur, base, 0.10, 0.5); len(bad) != 0 {
			t.Errorf("ns/op gated: %v", bad)
		}
	})

	t.Run("baseline without the metric is ignored", func(t *testing.T) {
		noTiming := doc(bench("BenchmarkRun-8", map[string]float64{"allocs/op": 10}))
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/sim-cycle": 9999, "allocs/op": 10,
		}))
		if bad := compare(cur, noTiming, 0.10, 0.5); len(bad) != 0 {
			t.Errorf("un-baselined timing flagged: %v", bad)
		}
	})

	t.Run("gated metric missing from current run is flagged", func(t *testing.T) {
		cur := doc(bench("BenchmarkRun-8", map[string]float64{
			"ns/op": 1000, "allocs/op": 10,
		}))
		bad := compare(cur, base, 0.10, 0.5)
		if len(bad) != 1 || !strings.Contains(bad[0], "ns/sim-cycle") {
			t.Errorf("want one missing ns/sim-cycle violation, got %v", bad)
		}
	})
}

func TestParseDocument(t *testing.T) {
	in := `goos: linux
BenchmarkRunActive/w1-8   3   100 ns/op   10 allocs/op
PASS
`
	d, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != docVersion || len(d.Benchmarks) != 1 {
		t.Fatalf("parsed %+v", d)
	}
}
