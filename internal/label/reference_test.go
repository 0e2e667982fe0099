package label

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/workload"
)

// referenceAssign is Assign driven by referenceGreedy instead of
// assignGreedy; the fallback path is shared.
func referenceAssign(p *model.Program, opts Options) (Labeling, error) {
	lab, err := referenceGreedy(p, opts)
	if err == nil && Check(p, lab.ByMessage) == nil {
		return lab, nil
	}
	if !crossoff.Classify(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget, Picker: opts.Picker}) {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, crossoff.Run(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget}).Blocked))
	}
	var eqs [][2]model.MessageID
	if opts.Lookahead {
		eqs = LookaheadEqualities(p, opts.Budget)
	}
	fallback, err2 := AssignByOrder(p, eqs)
	if err2 != nil {
		return Labeling{}, err2
	}
	reason := "greedy §6 scheme produced an inconsistent labeling"
	if err != nil {
		reason = err.Error()
	}
	fallback.Warnings = append(fallback.Warnings,
		fmt.Sprintf("label: fell back to order-based labeling (%s)", reason))
	return fallback, nil
}

// referenceRelated is Related with a fresh map of previous op
// indexes per cell.
func referenceRelated(p *model.Program) *UnionFind {
	uf := NewUnionFind(p.NumMessages())
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		prev := make(map[model.MessageID]int)
		for i, op := range code {
			if j, ok := prev[op.Msg]; ok {
				for k := j + 1; k < i; k++ {
					uf.Union(int(op.Msg), int(code[k].Msg))
				}
			}
			prev[op.Msg] = i
		}
	}
	return uf
}

// referenceGreedy is the §6 scheme written as literally as possible:
// rule 1c scans every message for members of the picked message's
// related class, and steps 1a/1b scan a per-cell map of remaining ops
// for the smallest pending label. It is quadratic and exists only to
// pin assignGreedy's output.
func referenceGreedy(p *model.Program, opts Options) (Labeling, error) {
	uf := referenceRelated(p)

	labels := make([]rational.R, p.NumMessages())
	labeled := make([]bool, p.NumMessages())
	lastTouched := make([]rational.R, p.NumCells())
	maxInUse := rational.FromInt(0)
	var warnings []string
	var schemeErr error

	remaining := make([]map[model.MessageID]int, p.NumCells())
	for c := 0; c < p.NumCells(); c++ {
		remaining[c] = make(map[model.MessageID]int)
		for _, op := range p.Code(model.CellID(c)) {
			remaining[c][op.Msg]++
		}
	}

	pendingMin := func(c model.CellID, self model.MessageID) (rational.R, bool) {
		var min rational.R
		found := false
		for msg, n := range remaining[c] {
			if n <= 0 || msg == self || !labeled[msg] {
				continue
			}
			if !found || labels[msg].Less(min) {
				min = labels[msg]
				found = true
			}
		}
		return min, found
	}

	setLabel := func(msg model.MessageID, lab rational.R) {
		labels[msg] = lab
		labeled[msg] = true
		maxInUse = rational.Max(maxInUse, lab)
	}

	observer := func(pr crossoff.Pair) {
		defer func() {
			remaining[pr.WriteCell][pr.Msg]--
			remaining[pr.ReadCell][pr.Msg]--
			lastTouched[pr.WriteCell] = labels[pr.Msg]
			lastTouched[pr.ReadCell] = labels[pr.Msg]
		}()
		if labeled[pr.Msg] {
			return
		}
		m := p.Message(pr.Msg)
		uS, okS := pendingMin(m.Sender, pr.Msg)
		uR, okR := pendingMin(m.Receiver, pr.Msg)
		var lab rational.R
		switch {
		case !okS && !okR:
			lab = rational.FromInt(maxInUse.Floor() + 1)
		default:
			upper := uS
			if !okS || (okR && uR.Less(upper)) {
				upper = uR
			}
			lower := rational.Max(lastTouched[m.Sender], lastTouched[m.Receiver])
			if !lower.Less(upper) {
				if schemeErr == nil {
					schemeErr = fmt.Errorf(
						"label: empty window for message %s: last touched %v, pending %v",
						m.Name, lower, upper)
				}
				lower = upper.Sub(rational.FromInt(1))
			}
			lab = lower.Mid(upper)
		}
		for other := 0; other < p.NumMessages(); other++ {
			if uf.Find(other) == uf.Find(int(pr.Msg)) && !labeled[other] {
				setLabel(model.MessageID(other), lab)
			}
		}
		for _, sk := range pr.Skipped {
			if !labeled[sk.Msg] {
				setLabel(sk.Msg, lab)
			} else if !labels[sk.Msg].Equal(lab) {
				warnings = append(warnings, fmt.Sprintf(
					"label: skipped message %s already labeled %v, wanted %v (rule 1d)",
					p.Message(sk.Msg).Name, labels[sk.Msg], lab))
			}
		}
		if !labeled[pr.Msg] {
			setLabel(pr.Msg, lab)
		}
	}

	res := crossoff.Run(p, crossoff.Options{
		Lookahead: opts.Lookahead,
		Budget:    opts.Budget,
		Picker:    opts.Picker,
		Observer:  observer,
	})
	if !res.DeadlockFree {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, res.Blocked))
	}
	if schemeErr != nil {
		return Labeling{}, schemeErr
	}
	for i, ok := range labeled {
		if !ok {
			return Labeling{}, fmt.Errorf("label: message %s never labeled", p.Message(model.MessageID(i)).Name)
		}
	}
	return Labeling{ByMessage: labels, Dense: densify(labels), Warnings: warnings}, nil
}

// render prints everything Assign returns, so two results compare
// byte for byte.
func render(lab Labeling, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "labels %v\ndense %v\n", lab.ByMessage, lab.Dense)
	for _, w := range lab.Warnings {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	if err != nil {
		fmt.Fprintf(&b, "error %s\n", err)
	}
	return b.String()
}

// referenceCases returns the programs the reference comparison runs
// on: the paper's figures, the generator families at several sizes,
// a greedy corner case and random deadlock-free programs.
func referenceCases(t *testing.T) map[string]*model.Program {
	t.Helper()
	cases := map[string]*model.Program{}
	add := func(name string, w *workload.Workload, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = w.Program
	}
	for name, w := range map[string]*workload.Workload{
		"fig2": workload.Fig2(), "fig3": workload.Fig3(), "fig5p1": workload.Fig5P1(),
		"fig5p2": workload.Fig5P2(), "fig5p3": workload.Fig5P3(), "fig6": workload.Fig6(),
		"fig7": workload.Fig7(workload.Fig7Options{}), "fig8": workload.Fig8(), "fig9": workload.Fig9(),
	} {
		add(name, w, nil)
	}
	for logN := 2; logN <= 8; logN++ {
		w, err := workload.FFT(workload.FFTOptions{LogN: logN})
		add(fmt.Sprintf("fft%d", logN), w, err)
	}
	for _, s := range []struct{ width, rounds int }{{2048, 3}, {256, 16}, {64, 5}} {
		w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: s.width, Rounds: s.rounds})
		add(fmt.Sprintf("sort%dx%d", s.width, s.rounds), w, err)
	}
	w, err := workload.Attention(workload.AttentionOptions{Tokens: 12, Experts: 4})
	add("attention", w, err)
	w, err = workload.Stencil(workload.StencilOptions{Rows: 3, Cols: 4, Iters: 2})
	add("stencil", w, err)
	w, err = workload.MatMul(workload.MatMulOptions{Rows: 3, Inner: 4, Cols: 3})
	add("matmul", w, err)
	w, err = workload.MatVec(workload.MatVecOptions{N: 6})
	add("matvec", w, err)
	w, err = workload.FIR(workload.FIROptions{Taps: 4, Outputs: 6})
	add("fir", w, err)
	w, err = workload.Horner(workload.HornerOptions{Degree: 4, Count: 5})
	add("horner", w, err)
	w, err = workload.Sort(workload.SortOptions{N: 8})
	add("sort", w, err)
	w, err = workload.Sort(workload.SortOptions{N: 8, Symmetric: true})
	add("sort-symmetric", w, err)
	cases["regression103"] = regression103(t)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases[fmt.Sprintf("random%d", seed)] = randomDF(t, rng, 2+rng.Intn(5), 1+rng.Intn(8), 4)
	}
	return cases
}

// TestAssignMatchesReference pins the indexed §6 scheme to its literal
// transcription: related classes must agree, and labels, dense ranks,
// warnings and error text must be identical with and without lookahead, both from the greedy pass
// alone (whose rule-1d warnings and empty-window errors Assign's
// fallback replaces) and from Assign.
func TestAssignMatchesReference(t *testing.T) {
	settings := map[string]Options{
		"strict":      {},
		"lookahead=1": {Lookahead: true, Budget: crossoff.UniformBudget(1)},
		"lookahead=2": {Lookahead: true, Budget: crossoff.UniformBudget(2)},
	}
	// seen counts the results that reach each branch of the scheme,
	// so the comparison provably covers all of them.
	branches := []string{"/", "(rule 1d)", "empty window", "fell back", "not deadlock-free"}
	seen := map[string]int{}
	for name, p := range referenceCases(t) {
		if got, want := fmt.Sprint(Related(p).Classes()), fmt.Sprint(referenceRelated(p).Classes()); got != want {
			t.Errorf("%s: related classes %s, reference %s", name, got, want)
		}
		for setting, opts := range settings {
			for _, layer := range []struct {
				name      string
				got, want func(*model.Program, Options) (Labeling, error)
			}{
				{"greedy", assignGreedy, referenceGreedy},
				{"Assign", Assign, referenceAssign},
			} {
				got, want := render(layer.got(p, opts)), render(layer.want(p, opts))
				if got != want {
					t.Errorf("%s/%s: %s differs from the reference\ngot:\n%s\nwant:\n%s", name, setting, layer.name, got, want)
				}
				for _, branch := range branches {
					if strings.Contains(got, branch) {
						seen[branch]++
					}
				}
			}
		}
	}
	for _, branch := range branches {
		if seen[branch] == 0 {
			t.Errorf("no case reaches %q", branch)
		}
	}
	t.Logf("results per branch: %v", seen)
}
