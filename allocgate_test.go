package systolic_test

// Allocation gates for the compile-once execution core: CI fails when
// a change re-introduces per-run allocations that scale with program
// or array size. Budgets are ~3x the measured steady state (8–16
// allocs per Execute) so legitimate small additions don't flap the
// gate, while an O(cells) or O(messages) regression (hundreds to
// thousands of allocations) trips it immediately. The gates are
// skipped under the race detector, whose instrumentation changes
// allocation behavior.

import (
	"context"
	"testing"

	"systolic"
)

// allocGate asserts the steady-state allocations of one Execute call
// against a budget, after a warm-up run has populated the machine's
// execution pool.
func allocGate(t *testing.T, name string, budget float64, a *systolic.Analysis, opts systolic.ExecOptions) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	run := func() {
		res, err := systolic.Execute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal(res.Outcome())
		}
	}
	run() // warm the pooled exec scratch
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Errorf("%s: %v allocs per Execute, budget %v", name, got, budget)
	}
}

// TestAllocGateExecute gates the per-run allocation count of the
// compiled machine on a small analyzed workload.
func TestAllocGateExecute(t *testing.T) {
	w := systolic.Fig7Workload(systolic.Fig7Options{})
	a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocGate(t, "fig7/compatible", 48, a, systolic.ExecOptions{QueuesPerLink: 2, Capacity: 1})
	allocGate(t, "fig7/naive-fcfs", 48, a, systolic.ExecOptions{
		Policy: systolic.NaiveFCFS, QueuesPerLink: 2, Capacity: 1, Force: true,
	})
}

// TestAllocGateExecuteScaleFree gates the property the ready-set
// scheduler exists for: per-run allocations must not scale with the
// array — a 1024-cell mostly-idle workload gets the same budget as an
// 8-cell one.
func TestAllocGateExecuteScaleFree(t *testing.T) {
	a := largeLinearWorkload(t, 1024, 4)
	allocGate(t, "large-linear-1024", 48, a, systolic.ExecOptions{Capacity: 2})
}

// TestAllocGateParallel gates the opposite load shape: a 256-cell
// wavefront with every cell active in parallel each cycle. Per-cycle
// traffic must reuse pooled scratch, so the run holds the same budget
// as the mostly-idle and 8-cell workloads above — flat in both the
// array size and the cycle count.
func TestAllocGateParallel(t *testing.T) {
	a := wideLinearWorkload(t, 256, 4)
	allocGate(t, "wide-linear-256", 48, a, systolic.ExecOptions{Capacity: 2})
}

// TestAllocGateSweepBatch gates the column-batched sweep driver: on
// the benchmark grid (Figs 7–8 × 3 policies × 4 queue budgets × 3
// capacities × 2 lookaheads = 144 points) the whole sweep — per-column
// analyses included — must average at most 8 allocations per grid
// point. The batched driver's point is that a span's retained
// core.Runner replays its column without round-tripping scratch
// through the machine's pool; an O(cycles) or O(cells) per-point
// regression multiplies by 144 and trips this instantly (measured
// steady state: ~6.4 allocs/point).
func TestAllocGateSweepBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	f7 := systolic.Fig7Workload(systolic.Fig7Options{})
	f8 := systolic.Fig8Workload()
	cases := []systolic.SweepCase{
		{Name: "fig7", Program: f7.Program, Topology: f7.Topology},
		{Name: "fig8", Program: f8.Program, Topology: f8.Topology},
	}
	axes := systolic.SweepAxes{
		Policies:   []systolic.PolicyKind{systolic.NaiveFCFS, systolic.StaticAssignment, systolic.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2, 4},
		Lookaheads: []int{0, 2},
		Seed:       1,
	}
	points := axes.Size(len(cases))
	run := func() {
		rep, err := systolic.Sweep(context.Background(), cases, axes, systolic.SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outcomes) != points {
			t.Fatalf("report has %d outcomes, want %d", len(rep.Outcomes), points)
		}
	}
	run() // warm (nothing persists across sweeps today, but keep the gate's shape uniform)
	perPoint := testing.AllocsPerRun(5, run) / float64(points)
	if perPoint > 8 {
		t.Errorf("batched sweep: %.2f allocs per grid point, budget 8", perPoint)
	}
}
