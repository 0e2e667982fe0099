// Package sweep is the batch engine over the Analyze/Execute pipeline:
// it fans a grid of configurations — cases (program × topology),
// assignment policy, queues per link, queue capacity, lookahead budget
// — across a bounded worker pool and collects every run's outcome into
// a deterministic, order-stable report.
//
// The paper proves a point configuration safe (Theorem 1); the sweep
// engine is how that point is found: run the whole neighbourhood, see
// which configurations deadlock at run time, and read off the budgets
// that avoid it. Reports are byte-identical regardless of worker
// count: the grid is enumerated in a fixed order, every outcome is
// written to its own slot, and all randomness is seeded per
// configuration.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/sim"
	"systolic/internal/topology"
)

// ForEach runs fn(i) for every i in [0,n) across a bounded worker
// pool (workers ≤ 0 means runtime.GOMAXPROCS(0)). Callers write each
// result into its own slot, which keeps the output order-stable for
// any worker count — the same discipline Run uses for its grid, shared
// here so other batch engines (the differential oracle in
// internal/diff) fan out the same way. Cancelling ctx abandons
// unstarted indices and returns ctx.Err(); started calls always
// finish.
func ForEach(ctx context.Context, n, workers int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	var cancelled error
feeding:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feeding
		case feed <- i:
		}
	}
	close(feed)
	wg.Wait()
	return cancelled
}

// Case is one named (program, topology) pair under sweep.
type Case struct {
	Name     string
	Program  *model.Program
	Topology topology.Topology
}

// Axes spans the configuration grid: the cartesian product of every
// axis is run for every case. Empty axes take the defaults of
// DefaultAxes.
type Axes struct {
	// Policies are the assignment disciplines to contrast (e.g. the
	// paper's compatible policy against the naive FCFS baseline).
	Policies []core.PolicyKind
	// Queues are queues-per-link budgets; 0 means "the analysis'
	// minimum for the policy" (Theorem 1's assumption (ii) met
	// exactly).
	Queues []int
	// Capacities are per-queue word capacities (≥ 1).
	Capacities []int
	// Lookaheads are §8 skip budgets; 0 means the strict §3 procedure,
	// n > 0 classifies and labels with a uniform budget of n skipped
	// writes per message per located pair.
	Lookaheads []int
	// LinkModels are link-timing specs (see linkmodel.ParseSpec); the
	// empty string is the unit-latency interconnect. Empty means just
	// unit timing — the link axis is opt-in, so default grids keep
	// their historical shape.
	LinkModels []string
	// Seed feeds randomized policies; one seed keeps the whole grid
	// deterministic.
	Seed int64
}

// DefaultAxes contrasts the naive FCFS baseline with the paper's two
// compatible policies over small queue and capacity budgets, strict
// and lookahead-2.
func DefaultAxes() Axes {
	return Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment, core.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2},
		Lookaheads: []int{0, 2},
		LinkModels: []string{""},
		Seed:       1,
	}
}

// WithDefaults resolves empty axes to the DefaultAxes values — the
// exact grid Run will enumerate. Callers that need the grid's shape
// before running it (the serving layer sizes quotas and pre-resolves
// per-lookahead analyses) use this to agree with the engine.
func (a Axes) WithDefaults() Axes {
	d := DefaultAxes()
	if len(a.Policies) == 0 {
		a.Policies = d.Policies
	}
	if len(a.Queues) == 0 {
		a.Queues = d.Queues
	}
	if len(a.Capacities) == 0 {
		a.Capacities = d.Capacities
	}
	if len(a.Lookaheads) == 0 {
		a.Lookaheads = d.Lookaheads
	}
	if len(a.LinkModels) == 0 {
		a.LinkModels = d.LinkModels
	}
	return a
}

// Validate reports the first configuration error in the axes, after
// default resolution — the same checks Run performs up front, exported
// so callers that stream results can refuse a bad grid before any
// response bytes are committed.
func (a Axes) Validate() error {
	a = a.WithDefaults()
	for _, q := range a.Queues {
		if q < 0 {
			return fmt.Errorf("sweep: negative queue budget %d", q)
		}
	}
	for _, cp := range a.Capacities {
		if cp < 1 {
			return fmt.Errorf("sweep: capacity %d < 1 (the latch regime needs a dedicated run, not a grid)", cp)
		}
	}
	if _, err := a.linkPlans(); err != nil {
		return err
	}
	return nil
}

// linkPlans parses the (already defaulted or explicit) link-model axis
// once: specs[i] lowers to plans[spec]. The empty spec maps to a nil
// plan — the unit-latency interconnect.
func (a Axes) linkPlans() (map[string]*linkmodel.Plan, error) {
	plans := make(map[string]*linkmodel.Plan, len(a.LinkModels))
	for _, spec := range a.LinkModels {
		if spec == "" {
			plans[spec] = nil
			continue
		}
		p, err := linkmodel.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("sweep: link model %q: %v", spec, err)
		}
		plans[spec] = p
	}
	return plans, nil
}

// Size returns the number of grid points for numCases cases.
func (a Axes) Size(numCases int) int {
	a = a.WithDefaults()
	return numCases * len(a.Policies) * len(a.Queues) * len(a.Capacities) * len(a.Lookaheads) * len(a.LinkModels)
}

// Config is one grid point.
type Config struct {
	Case      int // index into the cases slice
	Policy    core.PolicyKind
	Queues    int // 0 = analysis minimum for the policy
	Capacity  int
	Lookahead int    // 0 = strict crossing-off
	LinkModel string // linkmodel spec; "" = unit-latency links
	Seed      int64
}

// Outcome is the result of one grid point.
type Outcome struct {
	Config
	CaseName string
	// DeadlockFree is the compile-time classification under the
	// config's lookahead budget. When false the run is skipped and
	// Result is "rejected".
	DeadlockFree bool
	// QueuesUsed resolves Queues (0 → the analysis minimum actually
	// simulated).
	QueuesUsed int
	// MinQueues is Theorem 1's queues-per-link requirement for the
	// config's policy (the dynamic-group minimum for compatible, the
	// competing-set minimum for static).
	MinQueues int
	// Result is "completed", "deadlocked", "timed-out", "rejected"
	// (analysis refused the program) or "error" (configuration
	// problem, see Err).
	Result string
	Cycles int
	// MaxQueueDepth is the largest queue occupancy observed.
	MaxQueueDepth int
	Err           string
}

// deadlocked reports whether this grid point stalled at run time.
func (o Outcome) deadlocked() bool { return o.Result == "deadlocked" }

// Options configures a sweep run.
type Options struct {
	// Workers bounds the pool; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MaxCycles bounds each simulation (0 = the simulator's derived
	// default).
	MaxCycles int
	// Faults, when non-nil, degrades the array for every grid point
	// (see internal/fault): the whole sweep runs on the same faulted
	// array, so the grid shows which configurations ride out the
	// degradation. Plans that do not fit a case's cell/link counts
	// surface as per-point errors.
	Faults *fault.Plan
	// Limiter, when non-nil, additionally gates every grid point on a
	// process-wide concurrency budget shared with other engines (the
	// serving layer passes its -max-concurrency limiter here, so
	// concurrent sweeps and single runs draw from one pool).
	Limiter *Limiter
	// OnOutcome, when non-nil, is called once per grid point as it
	// completes, from the worker goroutine that ran it, after the
	// point's limiter slot has been released — a slow consumer (a
	// streaming HTTP client) therefore never pins the process-wide
	// simulation budget. Indices arrive in completion order, not
	// enumeration order; the outcome passed is exactly the value the
	// final report carries at that index, so a caller that re-sorts by
	// index reconstructs the report's order-stable outcome list.
	// The callback must be safe for concurrent use. Grid points
	// abandoned by cancellation are never reported.
	OnOutcome func(index int, o Outcome)
	// PerPoint disables column batching: every grid point runs
	// through core.Execute against the machine's shared scratch pool
	// instead of a per-column core.Runner with retained buffers. The
	// batched driver produces byte-identical reports (the equivalence
	// suite replays grids through both paths); PerPoint is the escape
	// hatch and the comparison baseline for that suite and for
	// benchmarks.
	PerPoint bool
	// Analysis, when non-nil, replaces the engine's own per-(case,
	// lookahead) analysis step: the engine calls it exactly once per
	// distinct (case index, lookahead budget) pair during warm-up and
	// shares the result across the whole grid. The serving layer uses
	// this to route sweep analyses through its content-addressed
	// compiled-machine cache, so repeated sweeps of one program skip
	// Analyze and machine compilation entirely. An error is reported
	// per grid point exactly like a failed in-engine analysis.
	Analysis func(caseIdx, lookahead int) (*core.Analysis, error)

	// linkPlans maps each link-model axis spec to its parsed plan ("" →
	// nil, the unit interconnect). Run fills it from Axes.LinkModels
	// before fanning out, so runOne never re-parses on the hot path.
	linkPlans map[string]*linkmodel.Plan
}

// Report is the order-stable result of a sweep: Outcomes[i] is grid
// point i in enumeration order (case-major, then lookahead, capacity,
// policy, queues).
type Report struct {
	Cases    []string
	Outcomes []Outcome
}

// Run sweeps the grid. The returned report is identical for any
// worker count. Cancelling ctx abandons unstarted grid points and
// returns ctx.Err().
func Run(ctx context.Context, cases []Case, axes Axes, opts Options) (*Report, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("sweep: no cases")
	}
	for i, c := range cases {
		if c.Program == nil || c.Topology == nil {
			return nil, fmt.Errorf("sweep: case %d (%q) missing program or topology", i, c.Name)
		}
	}
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	axes = axes.WithDefaults()

	// Enumerate the grid in a fixed order; the report inherits it.
	configs := make([]Config, 0, axes.Size(len(cases)))
	for ci := range cases {
		for _, la := range axes.Lookaheads {
			for _, lm := range axes.LinkModels {
				for _, cp := range axes.Capacities {
					for _, pol := range axes.Policies {
						for _, q := range axes.Queues {
							configs = append(configs, Config{
								Case: ci, Policy: pol, Queues: q,
								Capacity: cp, Lookahead: la, LinkModel: lm, Seed: axes.Seed,
							})
						}
					}
				}
			}
		}
	}
	// Validate parsed the axis already; re-parse here for the plan map
	// runOne consults (one parse per distinct spec, not per point).
	linkPlans, err := axes.linkPlans()
	if err != nil {
		return nil, err
	}
	opts.linkPlans = linkPlans

	cache := newAnalysisCache(cases, opts.Analysis)
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cache.warm(cfg.Case, cfg.Lookahead)
	}

	// Worker-affine column batching: the enumeration order above makes
	// every (case, lookahead) pair a contiguous block of
	// |capacities|×|policies|×|queues| grid points sharing one analysis
	// and one compiled machine. Handing each worker whole blocks (split
	// into sub-columns when the grid has fewer blocks than workers)
	// lets it replay its column through one retained core.Runner —
	// scratch arenas, ready sets, and result buffers survive from point
	// to point instead of round-tripping through the machine's
	// sync.Pool. Outcomes still land in enumeration-order slots, so the
	// report stays byte-identical for any worker count and either
	// driver (see Options.PerPoint).
	block := len(axes.LinkModels) * len(axes.Capacities) * len(axes.Policies) * len(axes.Queues)
	spans := splitColumns(len(configs), block, opts.Workers)
	outcomes := make([]Outcome, len(configs))
	if err := ForEach(ctx, len(spans), opts.Workers, func(si int) {
		runSpan(ctx, cases, configs, spans[si], cache, outcomes, opts)
	}); err != nil {
		return nil, err
	}
	// A cancellation that struck while a worker waited on the shared
	// limiter leaves its outcome unwritten; refuse to return a partial
	// report.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.Name
	}
	return &Report{Cases: names, Outcomes: outcomes}, nil
}

// span is one worker-affine unit of grid work: a contiguous index
// range [lo, hi) of configs whose points all share one (case,
// lookahead) analysis.
type span struct{ lo, hi int }

// splitColumns carves n grid points into worker-affine spans. Each
// (case, lookahead) column is `block` contiguous points; when the grid
// has at least as many columns as workers each column is one span, and
// when it has fewer, every column is split into equal-as-possible
// sub-columns so all workers stay busy. Splitting never crosses a
// column boundary — a span's points always share an analysis.
func splitColumns(n, block, workers int) []span {
	if block <= 0 {
		block = 1
	}
	cols := n / block
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := 1
	if cols < workers {
		parts = (workers + cols - 1) / cols
		if parts > block {
			parts = block
		}
	}
	spans := make([]span, 0, cols*parts)
	for c := 0; c < cols; c++ {
		lo := c * block
		for p := 0; p < parts; p++ {
			s := lo + p*block/parts
			e := lo + (p+1)*block/parts
			if s < e {
				spans = append(spans, span{s, e})
			}
		}
	}
	return spans
}

// runSpan replays one span's grid points back-to-back on the worker
// that owns it, creating the span's core.Runner lazily on the first
// simulated point (rejected and errored points never need one). Each
// point still acquires its own limiter slot, and the slot is released
// before OnOutcome fires, so a slow consumer stalls this worker but
// never the process-wide simulation budget. A cancelled Acquire
// abandons the rest of the span; Run refuses to return the partial
// report. Release is called without defer — the loop holds at most
// one slot at a time, and a panicking run is fatal anyway.
//
//sysvet:hotpath
func runSpan(ctx context.Context, cases []Case, configs []Config, sp span, cache *analysisCache, outcomes []Outcome, opts Options) {
	var runner *core.Runner
	for i := sp.lo; i < sp.hi; i++ {
		cfg := configs[i]
		if err := opts.Limiter.Acquire(ctx); err != nil {
			return
		}
		a, aerr := cache.get(cfg.Case, cfg.Lookahead)
		if runner == nil && !opts.PerPoint && aerr == nil && a != nil && a.DeadlockFree {
			runner = core.NewRunner(a)
		}
		outcomes[i] = runOne(ctx, cases[cfg.Case], cfg, a, aerr, runner, opts)
		opts.Limiter.Release()
		if opts.OnOutcome != nil {
			opts.OnOutcome(i, outcomes[i])
		}
	}
}

// akey is the memoization key: the analysis (routes, labels, queue
// requirements) and its compiled machine depend only on the case and
// the lookahead budget — the policy, queue, and capacity axes all
// share one compile. (Capacity affects analysis only through the
// derived R2 budget, which the sweep's explicit lookahead axis always
// overrides.)
type akey struct{ caseIdx, lookahead int }

// analysisCache memoizes Analyze per (case, lookahead) and pre-warms
// each analysis' compiled machine, so the worker pool runs the entire
// grid as pure simulation: zero route computations, zero labelings,
// zero machine compiles per grid point. When a provider is installed
// (Options.Analysis), it replaces the in-engine analyze step and the
// cache merely memoizes its results.
type analysisCache struct {
	cases    []Case
	provider func(caseIdx, lookahead int) (*core.Analysis, error)
	analyses map[akey]*core.Analysis
	errs     map[akey]error
}

func newAnalysisCache(cases []Case, provider func(int, int) (*core.Analysis, error)) *analysisCache {
	return &analysisCache{
		cases:    cases,
		provider: provider,
		analyses: make(map[akey]*core.Analysis),
		errs:     make(map[akey]error),
	}
}

// warm computes and caches the analysis for one key, compiling its
// machine eagerly so concurrent workers never race to compile. It is
// not safe for concurrent use; Run warms the whole grid up front.
func (c *analysisCache) warm(caseIdx, lookahead int) {
	k := akey{caseIdx, lookahead}
	if _, seen := c.analyses[k]; seen {
		return
	}
	if _, seen := c.errs[k]; seen {
		return
	}
	var a *core.Analysis
	var err error
	if c.provider != nil {
		a, err = c.provider(caseIdx, lookahead)
	} else {
		a, err = analyze(c.cases[caseIdx], lookahead)
	}
	if err != nil {
		c.errs[k] = err
		return
	}
	if a.DeadlockFree {
		// Compile once here rather than lazily under the first
		// worker; a compile failure surfaces per grid point via
		// Execute exactly as before.
		_, _ = a.Machine()
	}
	c.analyses[k] = a
}

// get returns the cached analysis or error for a key.
func (c *analysisCache) get(caseIdx, lookahead int) (*core.Analysis, error) {
	k := akey{caseIdx, lookahead}
	return c.analyses[k], c.errs[k]
}

// analyze runs the compile-time pipeline for one (case, lookahead)
// key. The explicit budget override makes AnalyzeOptions.Capacity
// irrelevant, so capacities share one analysis.
func analyze(c Case, lookahead int) (*core.Analysis, error) {
	opts := core.AnalyzeOptions{}
	if lookahead > 0 {
		opts.Lookahead = true
		opts.BudgetOverride = func(model.MessageID) int { return lookahead }
	}
	return core.Analyze(c.Program, c.Topology, opts)
}

// runOne executes one grid point. A non-nil runner routes the run
// through the span's retained execution context; nil falls back to
// core.Execute (the PerPoint path, and points whose analysis failed).
// Only scalars are copied out of the Result, so the runner's aliased
// Result buffers are safe to reuse on the next point.
//
//sysvet:hotpath
func runOne(ctx context.Context, c Case, cfg Config, a *core.Analysis, aerr error, runner *core.Runner, opts Options) Outcome {
	// QueuesUsed starts as the requested budget so rejected/error rows
	// still report which configuration they were; simulated rows below
	// resolve 0 to the analysis minimum.
	o := Outcome{Config: cfg, CaseName: c.Name, QueuesUsed: cfg.Queues}
	if aerr != nil {
		o.Result = "error"
		o.Err = aerr.Error()
		return o
	}
	o.DeadlockFree = a.DeadlockFree
	if !a.DeadlockFree {
		o.Result = "rejected"
		return o
	}
	o.MinQueues = a.MinQueues(cfg.Policy)
	o.QueuesUsed = a.ResolveQueues(cfg.Policy, cfg.Queues)
	eopts := core.ExecOptions{
		Policy:        cfg.Policy,
		QueuesPerLink: o.QueuesUsed,
		Capacity:      cfg.Capacity,
		Seed:          cfg.Seed,
		MaxCycles:     opts.MaxCycles,
		Faults:        opts.Faults,
		LinkModel:     opts.linkPlans[cfg.LinkModel],
		// Context threads the sweep's cancellation into the run itself:
		// without it a cancelled caller (a dropped /v1/sweep client)
		// only stops unstarted grid points while every in-flight
		// simulation runs to completion, pinning its limiter slot.
		Context: ctx,
		// Force: under-provisioned grid points are the interesting
		// ones — let them run and deadlock rather than be refused.
		Force: true,
	}
	var res *sim.Result
	var err error
	if runner != nil {
		res, err = runner.Execute(eopts)
	} else {
		res, err = core.Execute(a, eopts)
	}
	if err != nil {
		o.Result = "error"
		o.Err = err.Error()
		return o
	}
	o.Result = res.Outcome()
	o.Cycles = res.Cycles
	for _, qs := range res.Stats.Queues {
		if qs.Stats.MaxOccupancy > o.MaxQueueDepth {
			o.MaxQueueDepth = qs.Stats.MaxOccupancy
		}
	}
	return o
}

// Deadlocked returns the outcomes that stalled at run time, in report
// order.
func (r *Report) Deadlocked() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.deadlocked() {
			out = append(out, o)
		}
	}
	return out
}

// SafeBudgets returns, per case name, the smallest queues-per-link
// budget that completed under every (capacity, lookahead, link-model)
// combination
// the case was simulated with for the given policy — the empirical
// Theorem 1 budget. A budget only counts when it was actually run in
// every combination (auto budgets can resolve differently per
// analysis), and never failed anywhere. Cases with no such budget are
// absent.
func (r *Report) SafeBudgets(policy core.PolicyKind) map[string]int {
	type combo struct {
		capacity, lookahead int
		linkModel           string
	}
	combos := make(map[string]map[combo]bool)              // all combos simulated per case
	completedAt := make(map[string]map[int]map[combo]bool) // combos completed per budget
	failed := make(map[string]map[int]bool)                // budgets that ever failed
	for _, o := range r.Outcomes {
		if o.Policy != policy || o.Result == "rejected" || o.Result == "error" {
			continue
		}
		cb := combo{o.Capacity, o.Lookahead, o.LinkModel}
		if combos[o.CaseName] == nil {
			combos[o.CaseName] = make(map[combo]bool)
		}
		combos[o.CaseName][cb] = true
		q := o.QueuesUsed
		if o.Result == "completed" {
			if completedAt[o.CaseName] == nil {
				completedAt[o.CaseName] = make(map[int]map[combo]bool)
			}
			if completedAt[o.CaseName][q] == nil {
				completedAt[o.CaseName][q] = make(map[combo]bool)
			}
			completedAt[o.CaseName][q][cb] = true
		} else {
			if failed[o.CaseName] == nil {
				failed[o.CaseName] = make(map[int]bool)
			}
			failed[o.CaseName][q] = true
		}
	}
	out := make(map[string]int)
	//sysvet:unordered -- each case writes only its own out[name] key
	for name, byBudget := range completedAt {
		best := -1
		//sysvet:unordered -- computes a minimum over budgets, which is order-independent
		for q, done := range byBudget {
			if failed[name][q] || len(done) < len(combos[name]) {
				continue
			}
			if best < 0 || q < best {
				best = q
			}
		}
		if best >= 0 {
			out[name] = best
		}
	}
	return out
}

// linkModelLabel renders a Config.LinkModel spec for the table; the
// empty spec is the unit-latency interconnect.
func linkModelLabel(spec string) string {
	if spec == "" {
		return "unit"
	}
	return spec
}

// Table renders the report as a fixed-width text table, one row per
// grid point in enumeration order, followed by a per-case summary of
// deadlock counts and safe budgets. The rendering is deterministic:
// equal reports produce byte-identical tables.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %7s %9s %10s %-14s %12s %7s %9s\n",
		"case", "policy", "queues", "capacity", "lookahead", "link-model", "result", "cycles", "max-depth")
	for _, o := range r.Outcomes {
		queues := fmt.Sprintf("%d", o.QueuesUsed)
		if o.Queues == 0 {
			if o.Result == "rejected" || o.Result == "error" {
				queues = "auto" // never resolved: the run was not simulated
			} else {
				queues = fmt.Sprintf("auto(%d)", o.QueuesUsed)
			}
		}
		result := o.Result
		if o.Result == "error" {
			result = "error*"
		}
		fmt.Fprintf(&b, "%-12s %-18s %7s %9d %10d %-14s %12s %7d %9d\n",
			o.CaseName, o.Policy.String(), queues, o.Capacity, o.Lookahead, linkModelLabel(o.LinkModel), result, o.Cycles, o.MaxQueueDepth)
	}
	for _, o := range r.Outcomes {
		if o.Result == "error" {
			fmt.Fprintf(&b, "* %s %s queues=%d capacity=%d lookahead=%d link-model=%s: %s\n",
				o.CaseName, o.Policy.String(), o.QueuesUsed, o.Capacity, o.Lookahead, linkModelLabel(o.LinkModel), o.Err)
		}
	}
	b.WriteString("\n")
	counts := make(map[string][2]int) // case -> [deadlocked, total-run]
	order := append([]string(nil), r.Cases...)
	sort.Strings(order)
	for _, o := range r.Outcomes {
		if o.Result == "rejected" || o.Result == "error" {
			continue
		}
		c := counts[o.CaseName]
		if o.deadlocked() {
			c[0]++
		}
		c[1]++
		counts[o.CaseName] = c
	}
	summaryPolicies := []core.PolicyKind{core.DynamicCompatible, core.StaticAssignment}
	safe := make([]map[string]int, len(summaryPolicies))
	for i, pol := range summaryPolicies {
		safe[i] = r.SafeBudgets(pol)
	}
	for _, name := range order {
		c := counts[name]
		fmt.Fprintf(&b, "%s: %d/%d simulated configurations deadlocked\n", name, c[0], c[1])
		for i, pol := range summaryPolicies {
			if q, ok := safe[i][name]; ok {
				fmt.Fprintf(&b, "%s: %s completes every swept configuration at %d queue(s)/link\n", name, pol.String(), q)
			}
		}
	}
	return b.String()
}
