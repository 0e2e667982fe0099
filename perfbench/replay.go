package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"systolic/internal/core"
	"systolic/internal/crossoff"
	"systolic/internal/dsl"
	"systolic/internal/label"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/server"
	"systolic/internal/sim"
	"systolic/internal/sweep"
	"systolic/internal/topology"
	"systolic/internal/verify"
	"systolic/internal/workload"
)

// span is one timed call into a layer. Times are offsets from the
// recorder's start; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Req        int
}

// recorder keeps spans in memory; they are written once at the end.
// With on false it records nothing, which is how the replay measures
// its own overhead.
type recorder struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent, Req: r.req})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

func (r *recorder) do(name string, f func()) {
	id := r.begin(name)
	f()
	r.end(id)
}

// add records a span measured by someone else as a child of the open
// span.
func (r *recorder) add(name string, start, end time.Time) {
	if !r.on {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: r.stack[len(r.stack)-1], Req: r.req})
}

// compiled is what the daemon's cache holds for one program.
type compiled struct {
	a        *core.Analysis
	scenario string
}

// replayer calls the layers directly, in the order the daemon's
// handlers call them, for the same inputs the HTTP clients sent.
type replayer struct {
	b       *bench
	rec     *recorder
	cache   map[string]compiled // by shape: the daemon's compiled-scenario cache
	recent  []compiled          // the last cacheSize analyses, retained as the daemon's LRU retains them
	limiter *sweep.Limiter
}

// tally is what one replayed request simulated.
type tally struct {
	words, cycles int
	points, dead  int           // sweep grid points, and how many deadlocked
	sweep         time.Duration // spent in sweep.Run
}

// request replays one request; a cold one runs the analysis layers.
func (r *replayer) request(sh *shape, src string, cold bool) (tally, error) {
	root := r.rec.begin("server.request")
	defer r.rec.end(root)
	c, ok := r.cache[sh.name]
	if cold || !ok {
		var err error
		if c, err = r.analyze(src); err != nil {
			return tally{}, err
		}
		r.cache[sh.name] = c
		if len(r.recent) == cacheSize {
			r.recent = append(r.recent[:0], r.recent[1:]...)
		}
		r.recent = append(r.recent, c)
	}
	if r.b.w.path == "/v1/sweep" {
		return r.sweep(sh, c)
	}
	return r.run(sh, c)
}

// analyze is the daemon's cache-miss path: parse, fingerprint, then
// core.Analyze's steps and the machine compile.
func (r *replayer) analyze(src string) (compiled, error) {
	var (
		f      *dsl.File
		c      compiled
		err    error
		routes [][]topology.Hop
		co     crossoff.Result
		lab    label.Labeling
		rep    verify.PreconditionReport
	)
	if r.rec.do("dsl.parse", func() { f, err = dsl.Parse(src) }); err != nil {
		return c, err
	}
	r.rec.do("machine.scenario_key", func() { c.scenario = machine.ScenarioKey(f.Program, f.Topology, nil, nil) })
	if r.rec.do("topology.routes", func() { routes, err = topology.Routes(f.Program, f.Topology) }); err != nil {
		return c, err
	}
	if r.rec.do("crossoff.run", func() { co = crossoff.Run(f.Program, crossoff.Options{}) }); !co.DeadlockFree {
		return c, fmt.Errorf("crossing-off rejected the program")
	}
	if r.rec.do("label.assign", func() { lab, err = label.Assign(f.Program, label.Options{}) }); err != nil {
		return c, err
	}
	if r.rec.do("label.check", func() { err = label.Check(f.Program, lab.ByMessage) }); err != nil {
		return c, err
	}
	r.rec.do("verify.budgets", func() { rep = verify.CheckPreconditionsRoutes(routes, lab.Dense, 1<<30) })
	c.a = &core.Analysis{
		Program: f.Program, Topology: f.Topology, Routes: routes,
		DeadlockFree: true, Strict: true, Labeling: lab,
		MinQueuesDynamic: rep.MaxGroup, MinQueuesStatic: rep.MaxCompeting,
	}
	r.rec.do("machine.compile", func() { _, err = c.a.Machine() })
	return c, err
}

func (r *replayer) run(sh *shape, c compiled) (tally, error) {
	var (
		res *sim.Result
		err error
	)
	if r.rec.do("machine.run", func() { res, err = core.Execute(c.a, core.ExecOptions{Policy: core.DynamicCompatible}) }); err != nil {
		return tally{}, err
	}
	resp := server.RunResponse{
		Scenario: c.scenario, Outcome: res.Outcome(), Cycles: res.Cycles,
		QueuesUsed: c.a.ResolveQueues(core.DynamicCompatible, 0), MinQueues: c.a.MinQueues(core.DynamicCompatible),
		WordsMoved: res.Stats.WordsMoved,
	}
	r.rec.do("server.encode", func() { _, err = json.Marshal(&resp) })
	if err != nil {
		return tally{}, err
	}
	return tally{words: res.Stats.WordsMoved, cycles: res.Cycles}, r.b.exp.checkRun(sh.name, &resp)
}

// sweep replays POST /v1/sweep: the link-model axis is parsed while
// the request is validated, then sweep.Run executes the grid on the
// cached analysis. The grid runs on one worker, so the time between
// two per-point callbacks is one grid point's machine run.
func (r *replayer) sweep(sh *shape, c compiled) (tally, error) {
	axes := sweep.Axes{Queues: sweepGrid.Queues, Capacities: sweepGrid.Capacities, Lookaheads: sweepGrid.Lookaheads, LinkModels: sweepGrid.LinkModels}
	for _, name := range sweepGrid.Policies {
		kind, err := core.ParsePolicy(name)
		if err != nil {
			return tally{}, err
		}
		axes.Policies = append(axes.Policies, kind)
	}
	for _, spec := range sweepGrid.LinkModels {
		var err error
		if r.rec.do("linkmodel.parse", func() { _, err = linkmodel.ParseSpec(spec) }); err != nil {
			return tally{}, err
		}
	}
	var (
		mu    sync.Mutex
		marks []time.Time
	)
	id := r.rec.begin("sweep.run")
	start := time.Now()
	rep, err := sweep.Run(context.Background(), []sweep.Case{{Name: "program", Program: c.a.Program, Topology: c.a.Topology}}, axes, sweep.Options{
		Workers: sweepGrid.Workers,
		Limiter: r.limiter,
		Analysis: func(int, int) (*core.Analysis, error) {
			return c.a, nil
		},
		OnOutcome: func(int, sweep.Outcome) {
			mu.Lock()
			marks = append(marks, time.Now())
			mu.Unlock()
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		r.rec.end(id)
		return tally{}, err
	}
	prev := start
	for _, m := range marks {
		r.rec.add("machine.run", prev, m)
		prev = m
	}
	r.rec.end(id)
	resp := server.SweepResponse{Scenario: c.scenario, Cached: true}
	r.rec.do("server.encode", func() {
		for _, o := range rep.Outcomes {
			resp.Outcomes = append(resp.Outcomes, server.SweepOutcome{
				Case: o.CaseName, Policy: o.Policy.String(), Queues: o.QueuesUsed, Capacity: o.Capacity,
				Lookahead: o.Lookahead, LinkModel: o.LinkModel, Result: o.Result, Cycles: o.Cycles, Error: o.Err,
			})
		}
		resp.Table = rep.Table()
		_, err = json.Marshal(&resp)
	})
	if err != nil {
		return tally{}, err
	}
	t := tally{points: len(resp.Outcomes), sweep: elapsed}
	if t.words, err = r.b.exp.checkSweep(sh.name, resp.Outcomes); err != nil {
		return tally{}, err
	}
	for _, o := range resp.Outcomes {
		t.cycles += o.Cycles
		if o.Result == "deadlocked" {
			t.dead++
		}
	}
	return t, nil
}

// traced is the outcome of a traced run.
type traced struct {
	spans             []span
	setupReqs         int                        // requests 0..setupReqs-1 replay the set-up warm-ups
	timedReqs         int                        // the timed requests follow them
	roots             []float64                  // ns per timed request, spans recorded
	rootsOff          []float64                  // ns per timed request, recording off
	perPoint          []float64                  // ns per sweep grid point, per sweep request
	words             int                        // simulated words moved by the timed requests
	cycles            int                        // simulated cycles of the timed requests
	deadlocked        []float64                  // deadlocked points per sweep request
	self              []map[string]time.Duration // per request: layer → self time
	attempted, failed int
}

// replay replays the set-up warm-ups, then the timed request sequence
// for dur. Each timed request is replayed twice in a row, with spans
// recorded and with recording off, in alternating order, so the pair
// sees the same machine state and their difference is the tracing
// overhead.
func (b *bench) replay(dur time.Duration, traceOut string) (*traced, error) {
	rec := &recorder{t0: time.Now()}
	r := &replayer{b: b, rec: rec, cache: map[string]compiled{}, limiter: sweep.NewLimiter(0)}
	t := &traced{setupReqs: b.warmups()}
	replayOne := func(req, i int, setup, on bool) (time.Duration, tally, error) {
		rec.req, rec.on = req, on
		sh := b.shapes[i%len(b.shapes)]
		src := sh.source(b.salt(i, setup))
		start := time.Now()
		tl, err := r.request(sh, src, b.w.cold || setup)
		return time.Since(start), tl, err
	}
	for i := range t.setupReqs {
		if _, _, err := replayOne(i, i, true, true); err != nil {
			return nil, fmt.Errorf("replay of warm-up %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		req := t.setupReqs + i
		var (
			d, dOff     time.Duration
			tl          tally
			err, errOff error
		)
		if i%2 == 0 {
			d, tl, err = replayOne(req, i, false, true)
			dOff, _, errOff = replayOne(req, i, false, false)
		} else {
			dOff, _, errOff = replayOne(req, i, false, false)
			d, tl, err = replayOne(req, i, false, true)
		}
		t.timedReqs++
		t.attempted += 2
		if err = errors.Join(err, errOff); err != nil {
			t.failed += 2
			fmt.Fprintf(os.Stderr, "perfbench: replay of request %d: %v\n", i, err)
			continue
		}
		t.roots = append(t.roots, float64(d))
		t.rootsOff = append(t.rootsOff, float64(dOff))
		t.words += tl.words
		t.cycles += tl.cycles
		if tl.points > 0 {
			t.perPoint = append(t.perPoint, float64(tl.sweep)/float64(tl.points))
			t.deadlocked = append(t.deadlocked, float64(tl.dead))
		}
	}
	t.spans = rec.spans

	// A workload that sends no sweep never calls the sweep layer; its
	// per-point cost is then taken from a one-point sweep.Run of the
	// workload's first program, outside the request sequence.
	if len(t.perPoint) == 0 {
		per, err := sweepProbe(r.cache[b.shapes[0].name].a)
		if err != nil {
			return nil, err
		}
		t.perPoint = []float64{per}
		t.deadlocked = []float64{0}
	}
	t.self = selfTimes(t.spans, t.setupReqs+t.timedReqs)
	return t, writeChromeTrace(traceOut, t.spans)
}

func sweepProbe(a *core.Analysis) (float64, error) {
	start := time.Now()
	_, err := sweep.Run(context.Background(), []sweep.Case{{Name: "program", Program: a.Program, Topology: a.Topology}},
		sweep.Axes{Policies: []core.PolicyKind{core.DynamicCompatible}, Queues: []int{0}, Capacities: []int{1}, Lookaheads: []int{0}, LinkModels: []string{""}},
		sweep.Options{Workers: 1, Analysis: func(int, int) (*core.Analysis, error) { return a, nil }})
	return float64(time.Since(start)), err
}

// selfTimes sums each layer's self time per request: a span's duration
// minus the durations of its direct children.
func selfTimes(spans []span, reqs int) []map[string]time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make([]map[string]time.Duration, reqs)
	for i := range out {
		out[i] = map[string]time.Duration{}
	}
	for i, s := range spans {
		out[s.Req][s.Name] += self[i]
	}
	return out
}

// selfP50 is a layer's self time per request, as the median over the
// replayed requests that call it. Replayed set-up requests count, so a
// layer the cache skips during the timed phase still reports what one
// call costs; timedCalls tells how often the timed phase pays it.
func (t *traced) selfP50(layer string) float64 {
	var v []float64
	for _, m := range t.self {
		if d, ok := m[layer]; ok {
			v = append(v, float64(d))
		}
	}
	return median(v)
}

// timedSelf is a layer's total self time over the timed requests.
func (t *traced) timedSelf(layer string) time.Duration {
	var d time.Duration
	for _, m := range t.self[t.setupReqs:] {
		d += m[layer]
	}
	return d
}

// timedCalls counts a layer's spans per timed request.
func (t *traced) timedCalls() map[string]float64 {
	calls := map[string]float64{}
	for _, s := range t.spans {
		if s.Req >= t.setupReqs {
			calls[s.Name]++
		}
	}
	for name := range calls {
		calls[name] /= float64(t.timedReqs)
	}
	return calls
}

// printTable prints the per-layer self-time table of the traced run.
func (t *traced) printTable(out io.Writer, traceOut string) {
	calls := t.timedCalls()
	var total time.Duration
	names := map[string]bool{}
	for _, s := range t.spans {
		names[s.Name] = true
	}
	for name := range names {
		total += t.timedSelf(name)
	}
	fmt.Fprintf(out, "spans  %d spans over %d set-up and %d timed requests, written to %s\n", len(t.spans), t.setupReqs, t.timedReqs, traceOut)
	fmt.Fprintf(out, "layer  %-22s %12s %14s %14s %8s\n", "", "calls/req", "self p50 ms", "timed self ms", "share")
	for _, name := range slices.Sorted(maps.Keys(names)) {
		self := t.timedSelf(name)
		fmt.Fprintf(out, "layer  %-22s %12.4g %14.4f %14.3f %7.2f%%\n", name, calls[name], ms(t.selfP50(name)), ms(float64(self)), 100*float64(self)/float64(total))
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (complete "X" events, microseconds), which chrome://tracing and
// Perfetto open.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent, "request": s.Req},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// fitWidths are the wide-shallow sortnet sizes the scaling exponents
// are fitted over (3 rounds each).
var fitWidths = []int{512, 1024, 2048}

// fitExponents fits, per layer, the slope of log(time) against
// log(message count) over the fitWidths sortnets; each point is the
// median of three calls.
func fitExponents() (map[string]float64, error) {
	var x []float64
	y := map[string][]float64{}
	for _, w := range fitWidths {
		wl, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: w, Rounds: 3})
		if err != nil {
			return nil, err
		}
		src := dsl.Format(wl.Program, wl.Topology)
		p := wl.Program
		x = append(x, math.Log(float64(p.NumMessages())))
		calls := map[string]func() error{
			"dsl.parse_exp":    func() error { _, err := dsl.Parse(src); return err },
			"crossoff.run_exp": func() error { crossoff.Run(p, crossoff.Options{}); return nil },
			"label.assign_exp": func() error { _, err := label.Assign(p, label.Options{}); return err },
		}
		for name, call := range calls {
			var t []float64
			for range 3 {
				start := time.Now()
				if err := call(); err != nil {
					return nil, fmt.Errorf("%s at width %d: %w", name, w, err)
				}
				t = append(t, float64(time.Since(start)))
			}
			y[name] = append(y[name], math.Log(median(t)))
		}
	}
	out := map[string]float64{}
	for name, ys := range y {
		out[name] = slope(x, ys)
	}
	return out, nil
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i] / float64(len(x))
		my += y[i] / float64(len(x))
	}
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	return num / den
}

// median of v (0 for none), interpolating between the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPct is the tail percentile every workload reports: the highest
// with at least ten samples beyond it at the smallest request count a
// 30-second run makes (about 100 sweeps), fixed so that runs with
// different counts report the same percentile.
const tailPct = 90

// percentile is the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	s := slices.Sorted(slices.Values(v))
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
