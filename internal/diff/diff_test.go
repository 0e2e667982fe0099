package diff

import (
	"context"
	"strings"
	"testing"

	"systolic/internal/core"
	"systolic/internal/dsl"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/workload"
)

// TestCleanSweep: on the shipped analyzer, a batch of un-mutated,
// mutated, and cyclic scenarios must produce zero invariant
// violations — the differential statement of Theorem 1.
func TestCleanSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"mutated", Options{Gen: gen.Options{Mutations: 3}}},
		{"cyclic", Options{Gen: gen.Options{Cyclic: true, Mutations: 2}}},
		{"lookahead", Options{Gen: gen.Options{Mutations: 4}, Lookahead: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(context.Background(), 300, 1, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations() {
				t.Errorf("%s", v)
			}
			if rep.N != 300 || len(rep.Results) != 300 {
				t.Fatalf("report sized %d/%d, want 300", rep.N, len(rep.Results))
			}
		})
	}
}

// TestFaultedSweep: with seeded fault plans the degraded-array
// invariants (noop-equivalence, degraded-completion, parallel
// equivalence under faults) must hold across a batch of scenarios —
// and the extra simulations must actually run.
func TestFaultedSweep(t *testing.T) {
	clean, err := Run(context.Background(), 120, 1, Options{Gen: gen.Options{Mutations: 2}})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(context.Background(), 120, 1, Options{Gen: gen.Options{Mutations: 2}, SeedFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range faulted.Violations() {
		t.Errorf("faulted sweep: %s", v)
	}
	runs := func(r *Report) (n int) {
		for _, res := range r.Results {
			n += res.Runs
		}
		return n
	}
	if c, f := runs(clean), runs(faulted); f <= c {
		t.Fatalf("SeedFaults ran %d simulations over %d clean — the degraded checks never executed", f, c)
	}
}

// TestFaultedSweepExplicitPlan: an explicit plan is applied to every
// scenario it fits, including terminal faults, without violations.
func TestFaultedSweepExplicitPlan(t *testing.T) {
	plan, err := fault.ParseSpec("cell:1:slow=2,cell:0:dead@9")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), 80, 3, Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("explicit-plan sweep: %s", v)
	}
}

// TestDeterministicReport: the same batch must render byte-identically
// regardless of worker count (the acceptance bar for sysdl fuzz).
func TestDeterministicReport(t *testing.T) {
	opts := Options{Gen: gen.Options{Mutations: 2}, QueueOverride: 1}
	var first string
	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		rep, err := Run(context.Background(), 60, 7, o)
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Summary()
		if first == "" {
			first = s
		} else if s != first {
			t.Fatalf("summary differs between worker counts:\n%s\nvs\n%s", first, s)
		}
	}
}

// TestUnderBudgetCounterexample: forcing queues below the Theorem 1
// bound must produce at least one reproducible, minimized, replayable
// counterexample — and no violations (the failures are expected).
func TestUnderBudgetCounterexample(t *testing.T) {
	opts := Options{QueueOverride: 1}
	rep, err := Run(context.Background(), 100, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("unexpected violation: %s", v)
	}
	cexs := rep.Counterexamples()
	var deadlocks []Finding
	for _, f := range cexs {
		if f.Invariant == "under-budget-deadlock" {
			deadlocks = append(deadlocks, f)
		}
	}
	if len(deadlocks) == 0 {
		t.Fatal("want at least one under-budget deadlock counterexample")
	}

	f := deadlocks[0]
	// The counterexample replays: regenerate the scenario from its
	// seed and re-check — the same finding must reappear.
	sc, err := gen.Generate(f.Seed, opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(sc, opts)
	replayed := false
	for _, g := range res.Findings {
		if g.Invariant == f.Invariant && g.Policy == f.Policy && g.Queues == f.Queues && g.Capacity == f.Capacity {
			replayed = true
			if g.Counterexample != f.Counterexample {
				t.Errorf("replay minimized differently:\n%s\nvs\n%s", f.Counterexample, g.Counterexample)
			}
		}
	}
	if !replayed {
		t.Fatalf("replay of seed %d did not reproduce the finding %+v", f.Seed, f)
	}

	// The minimized program must itself still exhibit the deadlock:
	// parse it back, analyze, run at the forced budget.
	file, err := dsl.Parse(f.Counterexample)
	if err != nil {
		t.Fatalf("counterexample is not valid DSL: %v\n%s", err, f.Counterexample)
	}
	a, err := core.Analyze(file.Program, file.Topology, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.DeadlockFree {
		t.Fatal("minimized counterexample no longer analyzer-approved")
	}
	kind := core.DynamicCompatible
	if f.Policy == core.StaticAssignment.String() {
		kind = core.StaticAssignment
	}
	r, err := core.Execute(a, core.ExecOptions{
		Policy: kind, QueuesPerLink: f.Queues, Capacity: f.Capacity, Force: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatalf("minimized counterexample %s instead of deadlocking:\n%s", r.Outcome(), f.Counterexample)
	}
}

// TestCheckFigurePrograms: the oracle agrees with the hand-written
// figure analysis — Fig 7/8/9 are deadlock-free and pass every
// invariant at the Theorem 1 budget.
func TestCheckFigurePrograms(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.Fig7(workload.Fig7Options{}),
		workload.Fig8(),
		workload.Fig9(),
	} {
		sc := &gen.Scenario{Seed: -1, Program: w.Program, Topology: w.Topology, Name: w.Name}
		res := Check(sc, Options{})
		if !res.DeadlockFree {
			t.Errorf("%s: rejected by oracle analysis", w.Name)
		}
		for _, v := range res.Violations() {
			t.Errorf("%s: %s", w.Name, v)
		}
	}
}

// TestShrinkers: dropMessage and trimWord preserve validity and do
// what they say.
func TestShrinkers(t *testing.T) {
	sc, err := gen.Generate(11, gen.Options{Cells: 4, Messages: 3, MaxWords: 3, Topology: gen.TopoLinear})
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Program
	q, err := dropMessage(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumMessages() != p.NumMessages()-1 {
		t.Errorf("dropMessage: %d messages, want %d", q.NumMessages(), p.NumMessages()-1)
	}
	for m := 0; m < p.NumMessages(); m++ {
		if p.Message(model.MessageID(m)).Words < 2 {
			continue
		}
		r, err := trimWord(p, model.MessageID(m))
		if err != nil {
			t.Fatalf("trimWord(%d): %v", m, err)
		}
		if got, want := r.Message(model.MessageID(m)).Words, p.Message(model.MessageID(m)).Words-1; got != want {
			t.Errorf("trimWord(%d): %d words, want %d", m, got, want)
		}
	}
}

// TestRunErrors: bad batch parameters are rejected.
func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), 0, 1, Options{}); err == nil {
		t.Error("Run(n=0): want error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, 50, 1, Options{}); err == nil {
		t.Error("Run(cancelled ctx): want error")
	}
}

// TestSummaryMentionsCounts: the summary must surface the headline
// numbers a CI log reader needs.
func TestSummaryMentionsCounts(t *testing.T) {
	rep, err := Run(context.Background(), 20, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"20 scenarios", "seeds 3..22", "invariant violations: 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestLinkModelSweep: with the link-timing invariants enabled, a batch
// of scenarios must pass noop-equivalence, completion under both
// retimed models — and the extra
// simulations must actually run. The 200-scenario width is the CI
// contract for sysdl fuzz -link-models.
func TestLinkModelSweep(t *testing.T) {
	clean, err := Run(context.Background(), 200, 1, Options{Gen: gen.Options{Mutations: 2}})
	if err != nil {
		t.Fatal(err)
	}
	retimed, err := Run(context.Background(), 200, 1, Options{Gen: gen.Options{Mutations: 2}, LinkModels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range retimed.Violations() {
		t.Errorf("link-model sweep: %s", v)
	}
	runs := func(r *Report) (n int) {
		for _, res := range r.Results {
			n += res.Runs
		}
		return n
	}
	if c, f := runs(clean), runs(retimed); f <= c {
		t.Fatalf("LinkModels ran %d simulations over %d clean — the link-timing checks never executed", f, c)
	}
}

// TestLinkModelWithFaults: link models and seeded fault plans compose
// in one oracle pass without violations.
func TestLinkModelWithFaults(t *testing.T) {
	rep, err := Run(context.Background(), 80, 3, Options{Gen: gen.Options{Mutations: 2}, SeedFaults: true, LinkModels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("composed sweep: %s", v)
	}
}
