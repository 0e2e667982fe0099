// Command perfbench is the repository's end-to-end benchmark. It starts
// the simulation daemon in-process (systolic.NewServeHandler on a
// loopback listener), drives one named workload through it from
// closed-loop clients, checks every response against the pinned
// simulated results in expected.json, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 1 it instead reports the per-layer breakdown: after a
// short untraced HTTP phase it replays the same inputs by calling each
// layer's public function in the order the daemon calls them, records
// one span per call, and writes the spans as a Chrome trace-event file.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-analyze --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// workloadSpec is one traffic mix. Every workload is a closed loop:
// each client sends its next request when the previous reply is read.
type workloadSpec struct {
	name    string
	clients int
	path    string   // "/v1/run" or "/v1/sweep"
	shapes  []string // request i sends shapes[i%len(shapes)]
	// cold salts every request afresh, so every request misses the
	// daemon's caches; otherwise every request sends the one program
	// the set-up compiled.
	cold bool
}

// hitRatio is the /v1/stats cache hit ratio the timed phase must show
// exactly; a workload that stops exercising its path fails the run.
func (w *workloadSpec) hitRatio() float64 {
	if w.cold {
		return 0
	}
	return 1
}

var workloads = []*workloadSpec{
	{name: "cold-analyze", clients: 1, path: "/v1/run", shapes: []string{"sort2048x3", "sort256x16", "fft7"}, cold: true},
	{name: "warm-run", clients: 2, path: "/v1/run", shapes: []string{"fft8"}},
	{name: "sweep-retimed", clients: 1, path: "/v1/sweep", shapes: []string{"fft5"}},
}

// setupsPerRun is how many times a run sets up; setup_s is the median.
const setupsPerRun = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	expected string // pinned results file
	traceOut string // Chrome trace-event file written by -trace 1
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var pinPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cold-analyze, warm-run or sweep-retimed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the cell-name salts")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.expected, "expected", "perfbench/expected.json", "pinned simulated results")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file for -trace 1 (default .bench_build/perfbench/trace-WORKLOAD-SEED.json)")
	flag.StringVar(&pinPath, "pin", "", "compute the pinned results directly and write them to this file, then exit")
	flag.Parse()
	if pinPath != "" {
		if err := pin(pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its human-readable report
// to out; the caller prints the result line.
func run(cfg config, out io.Writer) (*result, error) {
	var w *workloadSpec
	for _, c := range workloads {
		if c.name == cfg.workload {
			w = c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	exp, err := loadExpected(cfg.expected)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: cfg.seed, exp: exp}

	// Set up several times and keep the last daemon: setup_s is the
	// median, so one slow set-up does not move it.
	var d *daemon
	setups := make([]float64, setupsPerRun)
	for i := range setups {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = b.setup(); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %d client(s), GOMAXPROCS %d\n", w.name, cfg.seed, w.clients, runtime.GOMAXPROCS(0))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	report := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(out, "metric %-26s %14.6g %s\n", name, v, unit)
	}
	if !cfg.trace {
		ph, err := b.timed(d, budget)
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		secs := ph.elapsed.Seconds()
		tail := percentile(ph.latencies, tailPct)
		beyond := 0
		for _, l := range ph.latencies {
			if l > tail {
				beyond++
			}
		}
		report("setup_s", median(setups), "s")
		report("latency_p50_ms", ms(median(ph.latencies)), "ms")
		report("latency_tail_ms", ms(tail), "ms")
		fmt.Fprintf(out, "note   latency_tail_ms is p%d of %d samples, %d beyond it\n", tailPct, len(ph.latencies), beyond)
		report("throughput_rps", float64(ph.ok)/secs, "1/s")
		report("sim_words_per_s", float64(ph.words)/secs, "1/s")
		report("alloc_mb_per_req", float64(ph.allocBytes)/1e6/float64(max(ph.ok, 1)), "MB")
		fmt.Fprintf(out, "metric %-26s %14.6g %s\n", "failed_frac", float64(ph.failed)/float64(ph.attempted), "frac")
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Correct = ph.failed == 0 && b.selfCheck(out, ph)
		return res, nil
	}

	// Traced run: an untraced HTTP phase for the request p50 and the
	// /v1/stats counters, then the traced replay of the same inputs.
	ph, err := b.timed(d, budget*2/5)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	tr, err := b.replay(budget/2, cfg.traceOut)
	if err != nil {
		return nil, err
	}
	res.Attempted = ph.attempted + tr.attempted
	res.Failed = ph.failed + tr.failed
	res.Correct = res.Failed == 0 && b.selfCheck(out, ph)
	tr.printTable(out, cfg.traceOut)

	layers := []struct{ metric, span string }{
		{"dsl.parse_ms", "dsl.parse"},
		{"machine.scenario_key_ms", "machine.scenario_key"},
		{"topology.routes_ms", "topology.routes"},
		{"crossoff.run_ms", "crossoff.run"},
		{"label.assign_ms", "label.assign"},
		{"label.check_ms", "label.check"},
		{"verify.budgets_ms", "verify.budgets"},
		{"machine.compile_ms", "machine.compile"},
		{"machine.run_ms", "machine.run"},
		{"server.encode_ms", "server.encode"},
	}
	for _, l := range layers {
		report(l.metric, ms(tr.selfP50(l.span)), "ms")
	}
	report("machine.ns_per_word", float64(tr.timedSelf("machine.run"))/float64(tr.words), "ns")
	report("machine.words_per_cycle", float64(tr.words)/float64(tr.cycles), "word/cycle")
	report("sweep.ms_per_point", ms(median(tr.perPoint)), "ms")
	report("sweep.deadlocked_points", median(tr.deadlocked), "count")
	report("server.self_ms", ms(median(ph.latencies)-median(tr.roots)), "ms")
	report("server.cache_hit_ratio", ph.hitRatio(), "ratio")
	report("server.shed", float64(ph.shed), "count")
	report("trace.overhead_frac", median(tr.roots)/median(tr.rootsOff)-1, "frac")
	exps, err := fitExponents()
	if err != nil {
		return nil, err
	}
	for _, name := range slices.Sorted(maps.Keys(exps)) {
		report(name, exps[name], "exponent")
	}
	return res, nil
}

func ms(d float64) float64 { return d / float64(time.Millisecond) }
