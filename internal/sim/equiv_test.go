package sim

// Engine-equivalence suite: the compiled machine (internal/machine,
// driving Run) must be byte-identical to the original full-scan
// engine (referenceRun) on every scenario and configuration — same
// outcome, same cycle count, same received streams, same blocked-cell
// reports, same timelines, same queue statistics. The suite replays
// the checked-in fuzz corpus plus a few hundred generated scenarios
// under a matrix of policies, budgets, capacities, pool regimes, and
// extension settings.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/linkmodel"
)

// mustLinkModel parses a link-model spec for the config matrix.
func mustLinkModel(spec string) *linkmodel.Plan {
	p, err := linkmodel.ParseSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("equiv_test: bad link-model spec %q: %v", spec, err))
	}
	return p
}

// equivCase is one (scenario seed, generation knobs) input. faultClass
// selects a degraded-array regime: 0 runs the perfect array, 1 a
// seeded periodic-only fault plan, 2 a seeded plan with terminal
// faults (dead cells / severed links) allowed.
type equivCase struct {
	seed       int64
	mutations  int
	cyclic     bool
	faultClass int
}

// corpusCases parses the native fuzz corpus checked in for the
// differential oracle, so the machines are compared on exactly the
// seeds the fuzzer found interesting. Corpus entries carry three byte
// knobs positionally — mutations, workload family, fault class; the
// family byte is oracle-only (the family generators are verified in
// internal/workload and cannot be imported here without a cycle), the
// other two replay.
func corpusCases(t *testing.T) []equivCase {
	t.Helper()
	dir := filepath.Join("..", "diff", "testdata", "fuzz", "FuzzOracle")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	var out []equivCase
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var c equivCase
		var bytes []int
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(line, "int64("):
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(line, "int64("), ")"), 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				c.seed = n
			case strings.HasPrefix(line, "byte("):
				n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "byte("), ")"), 0, 8)
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				bytes = append(bytes, int(n))
			case strings.HasPrefix(line, "bool("):
				c.cyclic = line == "bool(true)"
			}
		}
		if len(bytes) > 0 {
			c.mutations = bytes[0] % 8
		}
		if len(bytes) > 2 {
			c.faultClass = bytes[2] % 3
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	return out
}

// generatedCases derives 200 deterministic scenarios spanning clean,
// mutated (deadlocking), and cyclic programs; half of them run
// degraded (alternating periodic-only and terminal fault plans).
func generatedCases() []equivCase {
	out := make([]equivCase, 0, 200)
	for i := int64(1); i <= 200; i++ {
		out = append(out, equivCase{
			seed:       i,
			mutations:  int(i % 5),
			cyclic:     i%3 == 0,
			faultClass: int(i % 4 % 3), // 0,1,2,0,0,1,2,0,…
		})
	}
	return out
}

// equivConfigs is the configuration matrix each scenario runs under.
// Policies are built fresh per engine per run (instances are
// stateful). labels may be nil; label-dependent rows then cover the
// shared setup-error path instead.
func equivConfigs(labels []int) []Config {
	base := func(pol assign.Policy, queues, capacity int) Config {
		return Config{QueuesPerLink: queues, Capacity: capacity, Policy: pol, Labels: labels}
	}
	cfgs := []Config{
		base(assign.Naive(assign.FCFS, 0), 1, 1),
		base(assign.Naive(assign.FCFS, 0), 2, 2),
		base(assign.Naive(assign.LIFO, 0), 1, 1),
		base(assign.Naive(assign.Random, 7), 1, 2),
		base(assign.Static(), 3, 1),
		base(assign.Compatible(), 1, 1),
		base(assign.Compatible(), 2, 2),
	}
	timeline := base(assign.Naive(assign.FCFS, 0), 2, 1)
	timeline.RecordTimeline = true
	cfgs = append(cfgs, timeline)
	directional := base(assign.Compatible(), 1, 1)
	directional.DirectionalPools = true
	cfgs = append(cfgs, directional)
	ext := base(assign.Naive(assign.FCFS, 0), 1, 1)
	ext.ExtCapacity = 2
	ext.ExtPenalty = 2
	cfgs = append(cfgs, ext)
	// A tight cycle bound pins the timed-out path (partial progress,
	// identical cut-off accounting).
	bounded := base(assign.Naive(assign.FCFS, 0), 1, 1)
	bounded.MaxCycles = 7
	cfgs = append(cfgs, bounded)
	if labels != nil {
		cfgs = append(cfgs, base(assign.Naive(assign.LabelDescending, 0), 1, 1))
	}
	// Link-timing rows: all three LinkModel kinds (uniform fixed
	// slowdown, bandwidth-limited with a per-link override, congestion
	// backpressure) replay through both engines at every worker count.
	// The rows above pin the nil fast path; per-case fault plans apply
	// to these rows too, so LinkModel × fault composition is replayed
	// corpus-wide.
	for _, spec := range []string{
		"fixed,delay=3",
		"fixed,delay=2,credit=1,link:0:delay=4",
		"congestion,delay=1,threshold=2,max=4",
	} {
		lmrow := base(assign.Naive(assign.FCFS, 0), 2, 1)
		lmrow.LinkModel = mustLinkModel(spec)
		cfgs = append(cfgs, lmrow)
	}
	// One capacity-0 latch row under latency, so the rendezvous gate
	// and tally sites are replayed as well (multi-hop scenarios reject
	// capacity 0 identically in both engines).
	latch := base(assign.Naive(assign.FCFS, 0), 1, 0)
	latch.LinkModel = mustLinkModel("fixed,delay=2")
	cfgs = append(cfgs, latch)
	return cfgs
}

// freshPolicy rebuilds a config's policy so each engine gets its own
// instance (Setup must run exactly once per instance, and Random
// policies carry RNG state). Unknown names are a loud error: falling
// through would share one stateful instance between both engines and
// corrupt the comparison.
func freshPolicy(c Config) Config {
	switch c.Policy.Name() {
	case "compatible":
		c.Policy = assign.Compatible()
	case "static":
		c.Policy = assign.Static()
	case "naive-fcfs":
		c.Policy = assign.Naive(assign.FCFS, 0)
	case "naive-lifo":
		c.Policy = assign.Naive(assign.LIFO, 0)
	case "naive-random":
		c.Policy = assign.Naive(assign.Random, 7)
	case "naive-label-desc":
		c.Policy = assign.Naive(assign.LabelDescending, 0)
	default:
		panic(fmt.Sprintf("equiv_test: freshPolicy does not know how to rebuild %q; add it to the switch", c.Policy.Name()))
	}
	return c
}

// runEquivCase checks one scenario; it reports false when the
// scenario could not even be generated (so callers can bound how much
// of the suite silently evaporates).
func runEquivCase(t *testing.T, ec equivCase) bool {
	t.Helper()
	sc, err := gen.Generate(ec.seed, gen.Options{Mutations: ec.mutations, Cyclic: ec.cyclic})
	if err != nil {
		t.Logf("seed %d: generation failed: %v", ec.seed, err)
		return false
	}
	p := sc.Program
	// Labels when the scheme accepts the program; the trivial
	// everything-is-1 labeling otherwise, so label-ordered policies
	// are exercised on deadlocking programs too.
	var labels []int
	if lab, err := label.Assign(p, label.Options{}); err == nil {
		labels = lab.Dense
	} else {
		labels = label.Trivial(p).Dense
	}
	// Degraded replays: the seeded fault plan gates both engines at
	// identical points, so every reference-vs-machine comparison below
	// must stay byte-identical on the faulted array too.
	var plan *fault.Plan
	if ec.faultClass != 0 {
		plan = gen.RandomFaults(ec.seed, p.NumCells(), len(sc.Topology.Links()),
			gen.FaultOptions{PeriodicOnly: ec.faultClass == 1})
	}
	for i, cfg := range equivConfigs(labels) {
		cfg.Topology = sc.Topology
		cfg.Faults = plan
		ref, refErr := referenceRun(p, freshPolicy(cfg))
		got, gotErr := Run(p, freshPolicy(cfg))
		name := fmt.Sprintf("seed=%d mut=%d cyclic=%v faults=%d cfg=%d (%s q=%d cap=%d dir=%v)",
			ec.seed, ec.mutations, ec.cyclic, ec.faultClass, i, cfg.Policy.Name(), cfg.QueuesPerLink, cfg.Capacity, cfg.DirectionalPools)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: reference err=%v, machine err=%v", name, refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error text diverged:\n  reference: %v\n  machine:   %v", name, refErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: results diverged\nreference: %+v\nmachine:   %+v\nprogram:\n%s", name, ref, got, p)
		}
	}
	return true
}

// runEquivCases runs a batch and fails if a meaningful fraction of it
// never generated — the suite must not silently dwindle.
func runEquivCases(t *testing.T, cases []equivCase) {
	t.Helper()
	ran := 0
	for _, ec := range cases {
		if runEquivCase(t, ec) {
			ran++
		}
	}
	if ran < len(cases)*9/10 {
		t.Fatalf("only %d of %d scenarios generated; the equivalence suite lost its coverage", ran, len(cases))
	}
}

func TestEngineEquivalenceOnFuzzCorpus(t *testing.T) {
	runEquivCases(t, corpusCases(t))
}

func TestEngineEquivalenceOnGeneratedScenarios(t *testing.T) {
	runEquivCases(t, generatedCases())
}
