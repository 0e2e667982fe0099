package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systolic"
)

func TestAllFiguresRender(t *testing.T) {
	var b strings.Builder
	if err := AllFigures(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 1", "speedup=6.33x",
		"Figure 2", "W(XA)",
		"Figure 3", "C1→C2, C2→C3, C3→C4",
		"Figure 4", "Step 12",
		"Figure 5", "strict: deadlock-free=false; lookahead(budget 2): deadlock-free=true",
		"Figure 6", "deadlock-free: true",
		"Figure 7", "naive FCFS assignment, 1 queue/link: deadlocked",
		"compatible assignment, 1 queue/link: completed",
		"Figure 8", "minimum queues/link for compatible assignment: 2",
		"Figure 9",
		"Figure 10", "pair 1: message B (skips 2 writes)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
}

func TestFigureUnknown(t *testing.T) {
	var b strings.Builder
	if err := Figure(&b, 42); err == nil {
		t.Fatal("figure 42 accepted")
	}
}

const sampleDSL = `
cell Host host
cell C1
cell C2
message IN Host C1 3
message MID C1 C2 3
message OUT C2 Host 3
code Host: W(IN) W(IN) R(OUT) W(IN) R(OUT) R(OUT)
code C1: R(IN) W(MID) R(IN) W(MID) R(IN) W(MID)
code C2: R(MID) W(OUT) R(MID) W(OUT) R(MID) W(OUT)
`

func TestSysdlCheck(t *testing.T) {
	var b strings.Builder
	code, err := Sysdl(&b, "check", sampleDSL, DefaultSysdlOptions())
	if err != nil || code != 0 {
		t.Fatalf("check: code=%d err=%v\n%s", code, err, b.String())
	}
	if !strings.Contains(b.String(), "strict crossing-off: deadlock-free=true") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestSysdlCheckDeadlocked(t *testing.T) {
	src := `
cell C1
cell C2
message A C1 C2 1
message B C2 C1 1
code C1: R(B) W(A)
code C2: R(A) W(B)
`
	var b strings.Builder
	code, err := Sysdl(&b, "check", src, DefaultSysdlOptions())
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("deadlocked program exited %d, want 1", code)
	}
}

func TestSysdlLabelPlanRunRender(t *testing.T) {
	for _, cmd := range []string{"label", "plan", "run", "render"} {
		var b strings.Builder
		code, err := Sysdl(&b, cmd, sampleDSL, DefaultSysdlOptions())
		if err != nil || code != 0 {
			t.Fatalf("%s: code=%d err=%v\n%s", cmd, code, err, b.String())
		}
		switch cmd {
		case "label":
			if !strings.Contains(b.String(), "dense") {
				t.Fatalf("label output:\n%s", b.String())
			}
		case "plan":
			if !strings.Contains(b.String(), "queues/link needed") {
				t.Fatalf("plan output:\n%s", b.String())
			}
		case "run":
			if !strings.Contains(b.String(), "outcome: completed") {
				t.Fatalf("run output:\n%s", b.String())
			}
		case "render":
			if !strings.Contains(b.String(), "routes:") {
				t.Fatalf("render output:\n%s", b.String())
			}
		}
	}
}

func TestSysdlRunPolicies(t *testing.T) {
	for _, policy := range []string{"compatible", "static", "fcfs", "lifo", "random", "adversarial"} {
		opts := DefaultSysdlOptions()
		opts.Policy = policy
		opts.Queues = 3
		opts.Capacity = 2
		opts.Force = true
		var b strings.Builder
		code, err := Sysdl(&b, "run", sampleDSL, opts)
		if err != nil || code != 0 {
			t.Fatalf("policy %s: code=%d err=%v\n%s", policy, code, err, b.String())
		}
	}
}

func TestSysdlRunTimeline(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.Timeline = true
	var b strings.Builder
	code, err := Sysdl(&b, "run", sampleDSL, opts)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(b.String(), "bound to") {
		t.Fatalf("timeline missing:\n%s", b.String())
	}
}

func TestSysdlRunStats(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.Stats = true
	var b strings.Builder
	code, err := Sysdl(&b, "run", sampleDSL, opts)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(b.String(), "max-occ") {
		t.Fatalf("stats missing:\n%s", b.String())
	}
}

// TestSysdlRunFault: `sysdl run -fault` degrades the array, completes
// anyway for periodic faults, and reports the active faults, the gated
// operation count, and the surviving Theorem 1 budgets.
func TestSysdlRunFault(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.Fault = "cell:1:slow=2,link:0:slow=3@4"
	var b strings.Builder
	code, err := Sysdl(&b, "run", sampleDSL, opts)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"outcome: completed",
		"faults:",
		"cell:1:slow=2",
		"gated ops:",
		"impact cell:1:slow=2 (slow-cell): guarantee-holds=true",
		"impact link:0:slow=3@4 (degraded-link): guarantee-holds=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted run output missing %q:\n%s", want, out)
		}
	}
}

// TestSysdlRunFaultNoop: a factor-1 plan is byte-identical to no
// -fault flag at all — no faults section, same run report.
func TestSysdlRunFaultNoop(t *testing.T) {
	var clean, noop strings.Builder
	if code, err := Sysdl(&clean, "run", sampleDSL, DefaultSysdlOptions()); err != nil || code != 0 {
		t.Fatalf("clean run: code=%d err=%v", code, err)
	}
	opts := DefaultSysdlOptions()
	opts.Fault = "cell:0:slow=1"
	if code, err := Sysdl(&noop, "run", sampleDSL, opts); err != nil || code != 0 {
		t.Fatalf("noop-faulted run: code=%d err=%v", code, err)
	}
	if clean.String() != noop.String() {
		t.Fatalf("factor-1 plan changed the output:\n%s\nvs\n%s", clean.String(), noop.String())
	}
}

// TestSysdlRunFaultBadSpec: malformed and ill-fitting specs are usage
// errors, not runs.
func TestSysdlRunFaultBadSpec(t *testing.T) {
	for _, spec := range []string{"cell:0:frobnicate", "link:0:dead", "gpu:0:slow=2"} {
		opts := DefaultSysdlOptions()
		opts.Fault = spec
		var b strings.Builder
		if code, err := Sysdl(&b, "run", sampleDSL, opts); err == nil || code != 2 {
			t.Errorf("spec %q: code=%d err=%v, want usage error", spec, code, err)
		}
	}
	// Well-formed specs naming elements the program does not have are
	// execution-layer errors (exit 1), surfaced by Execute's validation.
	for _, spec := range []string{"cell:99:dead", "cell:-1:dead"} {
		opts := DefaultSysdlOptions()
		opts.Fault = spec
		var b strings.Builder
		if code, err := Sysdl(&b, "run", sampleDSL, opts); err == nil || code != 1 {
			t.Errorf("spec %q: code=%d err=%v, want exec error", spec, code, err)
		}
	}
}

func TestSysdlErrors(t *testing.T) {
	var b strings.Builder
	if code, err := Sysdl(&b, "run", "bogus", DefaultSysdlOptions()); err == nil || code == 0 {
		t.Fatal("parse error not reported")
	}
	if code, err := Sysdl(&b, "frobnicate", sampleDSL, DefaultSysdlOptions()); err == nil || code != 2 {
		t.Fatal("unknown subcommand not reported")
	}
	opts := DefaultSysdlOptions()
	opts.Policy = "bogus"
	if code, err := Sysdl(&b, "run", sampleDSL, opts); err == nil || code != 2 {
		t.Fatal("unknown policy not reported")
	}
}

func TestParsePolicy(t *testing.T) {
	kinds := map[string]systolic.PolicyKind{
		"compatible":  systolic.DynamicCompatible,
		"static":      systolic.StaticAssignment,
		"fcfs":        systolic.NaiveFCFS,
		"lifo":        systolic.NaiveLIFO,
		"random":      systolic.NaiveRandom,
		"adversarial": systolic.NaiveAdversarial,
	}
	for name, want := range kinds {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestStartProfilesWritesFiles runs a command bracketed by the
// profiling helper and checks both pprof files appear and are
// non-empty.
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultSysdlOptions()
	opts.CPUProfile = filepath.Join(dir, "cpu.out")
	opts.MemProfile = filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code, err := Sysdl(&buf, "plan", sampleDSL, opts); err != nil || code != 0 {
		t.Fatalf("plan: code=%d err=%v", code, err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{opts.CPUProfile, opts.MemProfile} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

// TestStartProfilesNoop: with both flags empty the helper must not
// create anything and stop must succeed.
func TestStartProfilesNoop(t *testing.T) {
	stop, err := StartProfiles(DefaultSysdlOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
