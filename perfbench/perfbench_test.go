package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the test checks the
// report against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// layerSpans lists the spans each workload's traced run must emit.
var layerSpans = map[string][]string{
	"cold-analyze": {"server.request", "dsl.parse", "machine.scenario_key", "topology.routes", "crossoff.run",
		"label.assign", "label.check", "verify.budgets", "machine.compile", "machine.run", "server.encode"},
	"warm-run":      {"server.request", "machine.run", "server.encode"},
	"sweep-retimed": {"server.request", "linkmodel.parse", "sweep.run", "machine.run", "server.encode"},
}

func shortRun(t *testing.T, workload string, seed int64, trace bool) (*result, string, map[string]string) {
	t.Helper()
	seconds := 3.0
	if testing.Short() {
		seconds = 1
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	res, err := run(config{workload: workload, seed: seed, seconds: seconds, trace: trace,
		expected: "expected.json", traceOut: traceOut}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d failed\n%s", workload, res.Correct, res.Failed, res.Attempted, out.String())
	}
	// calls maps each span name in the self-time table to its calls
	// per timed request.
	calls := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "layer" && f[1] != "calls/req" {
			calls[f[1]] = f[2]
		}
	}
	return res, out.String(), calls
}

// printed reports whether the report has a metric line for name with
// unit.
func printed(report, name, unit string) bool {
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	wordsPerCycle := map[string]float64{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, report, _ := shortRun(t, w.name, 1, false)
			for _, m := range bf.EndToEnd {
				if !printed(report, m.Name, m.Unit) || res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("end-to-end metric %s [%s] not reported\n%s", m.Name, m.Unit, report)
				}
			}
			if !printed(report, "failed_frac", "frac") {
				t.Errorf("failed_frac not reported\n%s", report)
			}

			res, report, calls := shortRun(t, w.name, 1, true)
			for _, m := range bf.PerLayer {
				if !printed(report, m.Name, m.Unit) || res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("per-layer metric %s [%s] not reported\n%s", m.Name, m.Unit, report)
				}
			}
			for _, name := range layerSpans[w.name] {
				if c, ok := calls[name]; !ok || c == "0" {
					t.Errorf("traced run has no %s span per timed request (table: %v)", name, calls)
				}
			}
			wordsPerCycle[w.name] = res.Metrics["machine.words_per_cycle"].Value
		})
	}
	// The retimed sweep is chosen for its idle cycles: it must move
	// under a tenth of the words per cycle that the warm run moves.
	if s, w := wordsPerCycle["sweep-retimed"], wordsPerCycle["warm-run"]; !(s < w/10) {
		t.Errorf("words per cycle: sweep-retimed %v, warm-run %v", s, w)
	}
}

// TestTraceFile checks that the span file is Chrome trace-event JSON
// whose spans carry a name, start, end, parent and request id.
func TestTraceFile(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if _, err := run(config{workload: "sweep-retimed", seed: 1, seconds: 0.5, trace: true,
		expected: "expected.json", traceOut: traceOut}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Args    map[string]int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	for i, e := range doc.TraceEvents {
		_, hasParent := e.Args["parent"]
		_, hasReq := e.Args["request"]
		if e.Name == "" || e.Ph != "X" || e.Dur < 0 || !hasParent || !hasReq {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if p := e.Args["parent"]; p >= 0 && doc.TraceEvents[p].Args["request"] != e.Args["request"] {
			t.Fatalf("event %d and its parent %d belong to different requests", i, p)
		}
	}
}

// TestHeldOutSeed checks that a second seed changes only the cell
// names: the same simulated results (both runs pass the pinned checks)
// and the same per-layer span counts.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range []string{"cold-analyze", "sweep-retimed"} {
		res1, _, calls1 := shortRun(t, w, 1, true)
		res2, _, calls2 := shortRun(t, w, 2, true)
		if len(calls1) == 0 || !maps.Equal(calls1, calls2) {
			t.Errorf("%s: span counts per request differ between seeds: %v vs %v", w, calls1, calls2)
		}
		for _, m := range []string{"sweep.deadlocked_points", "server.cache_hit_ratio"} {
			if res1.Metrics[m] != res2.Metrics[m] {
				t.Errorf("%s: %s differs between seeds: %v vs %v", w, m, res1.Metrics[m], res2.Metrics[m])
			}
		}
	}
}
