package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"systolic/internal/core"
	"systolic/internal/dsl"
	"systolic/internal/linkmodel"
	"systolic/internal/server"
	"systolic/internal/workload"
)

// A shape is one generated program. Its DSL text is kept as a template
// with a saltMark in front of every cell name, so each request can
// rename the cells without regenerating the program: the daemon's
// caches key on the text and on the parsed cell names, so a fresh salt
// misses both, while the simulated results stay the same.
type shape struct {
	name string
	tmpl string
}

const saltMark = "\x00"

func (s *shape) source(salt string) string { return strings.ReplaceAll(s.tmpl, saltMark, salt) }

var generators = map[string]func() (*workload.Workload, error){
	"sort2048x3": func() (*workload.Workload, error) {
		return workload.PipelinedSort(workload.PipelinedSortOptions{Width: 2048, Rounds: 3})
	},
	"sort256x16": func() (*workload.Workload, error) {
		return workload.PipelinedSort(workload.PipelinedSortOptions{Width: 256, Rounds: 16})
	},
	"fft7": func() (*workload.Workload, error) { return workload.FFT(workload.FFTOptions{LogN: 7}) },
	"fft8": func() (*workload.Workload, error) { return workload.FFT(workload.FFTOptions{LogN: 8}) },
	"fft5": func() (*workload.Workload, error) { return workload.FFT(workload.FFTOptions{LogN: 5}) },
}

// newShape generates a program and turns its DSL text into a template.
func newShape(name string) (*shape, error) {
	w, err := generators[name]()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(dsl.Format(w.Program, w.Topology), "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "cell":
			f[1] = saltMark + f[1]
		case len(f) == 5 && f[0] == "message":
			f[2], f[3] = saltMark+f[2], saltMark+f[3]
		case len(f) >= 2 && f[0] == "code":
			f[1] = saltMark + f[1]
		default:
			continue
		}
		lines[i] = strings.Join(f, " ")
	}
	return &shape{name: name, tmpl: strings.Join(lines, "\n")}, nil
}

// The sweep grid of the sweep-retimed workload. Workers is 1 so the
// traced replay's per-point spans time exactly what the daemon ran; the
// daemon's default, one grid worker per CPU, is not measured.
var sweepGrid = server.SweepRequest{
	Policies:   []string{"compatible", "fcfs"},
	Queues:     []int{1, 2},
	Capacities: []int{1, 2},
	Lookaheads: []int{0},
	LinkModels: []string{"unit", "fixed,delay=256", "fixed,delay=4096", "congestion,delay=16,threshold=2,max=64"},
	Workers:    1,
}

// runRequest is the /v1/run body every run workload sends: compatible
// policy, the analysis' minimum queues, unit links.
func runRequest(program string) server.RunRequest {
	return server.RunRequest{Program: program, Policy: "compatible"}
}

// runExpect pins what /v1/run must answer for a shape.
type runExpect struct {
	Outcome    string `json:"outcome"`
	Cycles     int    `json:"cycles"`
	WordsMoved int    `json:"wordsMoved"`
	MinQueues  int    `json:"minQueues"`
}

// pointExpect pins one sweep grid point. WordsMoved is not on the wire;
// it is pinned from a direct run so sim_words_per_s can count the words
// of points whose result and cycles match.
type pointExpect struct {
	Policy     string `json:"policy"`
	Queues     int    `json:"queues"`
	Capacity   int    `json:"capacity"`
	LinkModel  string `json:"linkModel"`
	Result     string `json:"result"`
	Cycles     int    `json:"cycles"`
	WordsMoved int    `json:"wordsMoved"`
}

// expected is the pinned simulated results file (expected.json).
type expected struct {
	Runs   map[string]runExpect     `json:"runs"`
	Sweeps map[string][]pointExpect `json:"sweeps"`
}

func loadExpected(path string) (*expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// pin computes the expected values by running each shape directly
// through core.Analyze and core.Execute, bypassing the daemon, and
// writes them to path.
func pin(path string) error {
	e := expected{Runs: map[string]runExpect{}, Sweeps: map[string][]pointExpect{}}
	for _, name := range []string{"sort2048x3", "sort256x16", "fft7", "fft8"} {
		a, err := analyzeShape(name)
		if err != nil {
			return err
		}
		res, err := core.Execute(a, core.ExecOptions{Policy: core.DynamicCompatible})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		e.Runs[name] = runExpect{res.Outcome(), res.Cycles, res.Stats.WordsMoved, a.MinQueues(core.DynamicCompatible)}
	}
	a, err := analyzeShape("fft5")
	if err != nil {
		return err
	}
	for _, spec := range sweepGrid.LinkModels {
		plan, err := linkmodel.ParseSpec(spec)
		if err != nil {
			return err
		}
		for _, capacity := range sweepGrid.Capacities {
			for _, pol := range sweepGrid.Policies {
				kind, err := core.ParsePolicy(pol)
				if err != nil {
					return err
				}
				for _, q := range sweepGrid.Queues {
					res, err := core.Execute(a, core.ExecOptions{Policy: kind, QueuesPerLink: q, Capacity: capacity, LinkModel: plan, Force: true})
					if err != nil {
						return fmt.Errorf("fft5 %s/%d/%d/%s: %w", pol, q, capacity, spec, err)
					}
					e.Sweeps["fft5"] = append(e.Sweeps["fft5"], pointExpect{
						kind.String(), q, capacity, spec, res.Outcome(), res.Cycles, res.Stats.WordsMoved})
				}
			}
		}
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func analyzeShape(name string) (*core.Analysis, error) {
	s, err := newShape(name)
	if err != nil {
		return nil, err
	}
	f, err := dsl.Parse(s.source(""))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return core.Analyze(f.Program, f.Topology, core.AnalyzeOptions{})
}

// checkRun compares a /v1/run response with its pinned values.
func (e *expected) checkRun(shape string, r *server.RunResponse) error {
	want, ok := e.Runs[shape]
	if !ok {
		return fmt.Errorf("no pinned values for %s", shape)
	}
	got := runExpect{r.Outcome, r.Cycles, r.WordsMoved, r.MinQueues}
	if got != want {
		return fmt.Errorf("%s: got %+v, pinned %+v", shape, got, want)
	}
	return nil
}

// checkSweep compares a sweep's outcomes, in grid order, with the
// pinned points, and returns the pinned words the grid moved.
func (e *expected) checkSweep(shape string, outcomes []server.SweepOutcome) (words int, err error) {
	want := e.Sweeps[shape]
	if len(outcomes) != len(want) {
		return 0, fmt.Errorf("%s: %d grid points, pinned %d", shape, len(outcomes), len(want))
	}
	for i, o := range outcomes {
		w := want[i]
		if o.Policy != w.Policy || o.Queues != w.Queues || o.Capacity != w.Capacity ||
			o.LinkModel != w.LinkModel || o.Result != w.Result || o.Cycles != w.Cycles {
			return 0, fmt.Errorf("%s point %d: got %s q%d c%d %q %s@%d, pinned %s q%d c%d %q %s@%d", shape, i,
				o.Policy, o.Queues, o.Capacity, o.LinkModel, o.Result, o.Cycles,
				w.Policy, w.Queues, w.Capacity, w.LinkModel, w.Result, w.Cycles)
		}
		words += w.WordsMoved
	}
	return words, nil
}
