// Package label implements the paper's consistent message labeling
// (§5 step 1, §6, §8.2).
//
// A labeling is *consistent* when every cell program writes to or reads
// from messages with nondecreasing labels. Consistency is the
// compile-time half of the avoidance strategy; the run-time half
// (compatible queue assignment) lives in internal/assign.
//
// The §6 scheme labels messages during a crossing-off pass:
//
//	1a. if neither endpoint of the picked message A will touch an
//	    already-labeled message, A gets a label larger than all in use;
//	1b. otherwise A gets a label between the last label each endpoint
//	    touched and the smallest labeled message either endpoint will
//	    still touch (possibly a non-integer — exact rationals here);
//	1c. messages *related* to A (interleaved reads or interleaved
//	    writes at some cell, closed symmetrically and transitively)
//	    receive A's label;
//	1d. with lookahead, messages whose writes were skipped while
//	    locating A's pair receive A's label (§8.2).
package label

import (
	"fmt"
	"sort"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/rational"
)

// Labeling is an assignment of positive labels to every message.
type Labeling struct {
	// ByMessage holds the exact label of each message, indexed by id.
	ByMessage []rational.R
	// Dense holds equivalent 1-based integer ranks: same order, same
	// ties, smallest label ↦ 1.
	Dense []int
	// Warnings records §6 corner cases that were resolved best-effort
	// (e.g. a lookahead-skipped message that already had a different
	// label). A non-empty list does not imply inconsistency; run Check.
	Warnings []string
}

// Options configures the §6 scheme.
type Options struct {
	// Lookahead and Budget select the crossing-off variant used to
	// drive labeling (§8.2). Budget semantics match crossoff.Options.
	Lookahead bool
	Budget    func(model.MessageID) int
	// Picker chooses among executable pairs; the paper notes the
	// choice may affect queue-use efficiency. nil = crossoff default.
	Picker crossoff.PairPicker
}

// Trivial returns the all-ones labeling, which the paper observes is
// always consistent but makes the compatible-assignment condition very
// stringent (§5).
func Trivial(p *model.Program) Labeling {
	l := Labeling{
		ByMessage: make([]rational.R, p.NumMessages()),
		Dense:     make([]int, p.NumMessages()),
	}
	for i := range l.ByMessage {
		l.ByMessage[i] = rational.FromInt(1)
		l.Dense[i] = 1
	}
	return l
}

// Related computes the paper's related-messages relation: A and B are
// related when, in some cell program, an operation on A appears between
// two consecutive operations on B of the same kind; the relation is
// closed symmetrically and transitively. The result maps each message
// to a class representative.
func Related(p *model.Program) *UnionFind {
	uf := NewUnionFind(p.NumMessages())
	// Within one cell all ops on a given message share a kind (the
	// cell is its sender or its receiver), so tracking the previous
	// op index per message suffices. prevCell[m] is 1 + the cell
	// that set prev[m], so neither needs clearing between cells.
	prev := make([]int, p.NumMessages())
	prevCell := make([]int, p.NumMessages())
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i, op := range code {
			if prevCell[op.Msg] == c+1 {
				for k := prev[op.Msg] + 1; k < i; k++ {
					uf.Union(int(op.Msg), int(code[k].Msg))
				}
			}
			prev[op.Msg], prevCell[op.Msg] = i, c+1
		}
	}
	return uf
}

// Assign produces a consistent labeling. It runs the paper's §6
// crossing-off-driven greedy scheme first; if that scheme's pick order
// paints itself into a corner (rule 1c can commit a related class to a
// label before every member's per-cell constraints are visible — the
// paper leaves the "optimal" pick choice open), Assign falls back to
// the order-based construction of AssignByOrder, which cannot fail,
// and records the fallback in Warnings. It returns an error only when
// the program is not deadlock-free under the selected variant.
func Assign(p *model.Program, opts Options) (Labeling, error) {
	lab, err := assignGreedy(p, opts)
	if err == nil && Check(p, lab.ByMessage) == nil {
		return lab, nil
	}
	if !crossoff.Classify(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget, Picker: opts.Picker}) {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, crossoff.Run(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget}).Blocked))
	}
	var eqs [][2]model.MessageID
	if opts.Lookahead {
		eqs = LookaheadEqualities(p, opts.Budget) // §8.2 rule 1d
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

// assignGreedy is the literal §6 algorithm: label during a
// crossing-off pass, steps 1a–1d.
func assignGreedy(p *model.Program, opts Options) (Labeling, error) {
	uf := Related(p)
	// Rule 1c labels a whole related class at once, so a class is
	// walked at most once.
	members, start := uf.classMembers()

	labels := make([]rational.R, p.NumMessages())
	labeled := make([]bool, p.NumMessages())
	lastTouched := make([]rational.R, p.NumCells()) // zero = "nothing yet" (labels are ≥ 1)
	maxInUse := rational.FromInt(0)
	var warnings []string
	var schemeErr error

	// Steps 1a/1b need the smallest label among the messages a cell
	// will still read from or write to. A message occurs only in its
	// sender's and its receiver's code, and each crossed pair removes
	// one op from each, so left[msg] counts the uncrossed ops of msg
	// at either endpoint. Each cell keeps a min-heap, ordered by
	// label, of the labeled messages it touches; labels never change
	// once set, so dropping heap entries whose left count reached
	// zero when they surface is exact.
	left := make([]int, p.NumMessages())
	for _, m := range p.Messages() {
		left[m.ID] = m.Words
	}
	pending := make([]labelHeap, p.NumCells())

	// pendingMin returns the smallest label among labeled messages
	// still appearing in cell c's remaining ops. It is only asked on
	// behalf of an unlabeled message, which no heap holds, so that
	// message needs no exclusion.
	pendingMin := func(c model.CellID) (rational.R, bool) {
		h := &pending[c]
		for len(*h) > 0 && left[(*h)[0]] == 0 {
			h.pop(labels)
		}
		if len(*h) == 0 {
			return rational.R{}, false
		}
		return labels[(*h)[0]], true
	}

	setLabel := func(msg model.MessageID, lab rational.R) {
		labels[msg] = lab
		labeled[msg] = true
		maxInUse = rational.Max(maxInUse, lab)
		m := p.Message(msg)
		pending[m.Sender].push(msg, labels)
		pending[m.Receiver].push(msg, labels)
	}

	observer := func(pr crossoff.Pair) {
		defer func() {
			// The pair is crossed after observation: account for it.
			left[pr.Msg]--
			lastTouched[pr.WriteCell] = labels[pr.Msg]
			lastTouched[pr.ReadCell] = labels[pr.Msg]
		}()
		if labeled[pr.Msg] {
			return
		}
		m := p.Message(pr.Msg)
		uS, okS := pendingMin(m.Sender)
		uR, okR := pendingMin(m.Receiver)
		var lab rational.R
		switch {
		case !okS && !okR:
			// Step 1a: larger than every label in use.
			lab = rational.FromInt(maxInUse.Floor() + 1)
		default:
			// Step 1b: between the last labels touched and the
			// smallest pending labeled message.
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
				lower = upper.Sub(rational.FromInt(1)) // degrade; Check will judge
			}
			lab = lower.Mid(upper)
		}
		// Steps 1c/1d share the label across the related class and
		// the skipped-over messages.
		r := uf.Find(int(pr.Msg))
		for _, other := range members[start[r]:start[r+1]] {
			if !labeled[other] {
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
		if !labeled[pr.Msg] { // not covered by its own class loop? (always is; defensive)
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
			// Unreachable for validated programs (every message has a
			// crossed pair), kept as a hard failure.
			return Labeling{}, fmt.Errorf("label: message %s never labeled", p.Message(model.MessageID(i)).Name)
		}
	}
	return Labeling{ByMessage: labels, Dense: densify(labels), Warnings: warnings}, nil
}

// labelHeap is a min-heap of message ids ordered by their labels.
type labelHeap []model.MessageID

func (h *labelHeap) push(msg model.MessageID, labels []rational.R) {
	*h = append(*h, msg)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !labels[(*h)[i]].Less(labels[(*h)[parent]]) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *labelHeap) pop(labels []rational.R) {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && labels[(*h)[l]].Less(labels[(*h)[small]]) {
			small = l
		}
		if r < n && labels[(*h)[r]].Less(labels[(*h)[small]]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
}

// densify converts exact labels to 1-based integer ranks preserving
// order and ties.
func densify(labels []rational.R) []int {
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[idx[a]].Less(labels[idx[b]]) })
	dense := make([]int, len(labels))
	rank := 0
	for i, id := range idx {
		if i == 0 || labels[idx[i-1]].Less(labels[id]) {
			rank++
		}
		dense[id] = rank
	}
	return dense
}

// Check verifies consistency: every cell program touches messages in
// nondecreasing label order. It returns nil for consistent labelings
// and a descriptive error naming the first violating cell and ops
// otherwise.
func Check(p *model.Program, labels []rational.R) error {
	if len(labels) != p.NumMessages() {
		return fmt.Errorf("label: %d labels for %d messages", len(labels), p.NumMessages())
	}
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i := 1; i < len(code); i++ {
			prev, cur := labels[code[i-1].Msg], labels[code[i].Msg]
			if cur.Less(prev) {
				return fmt.Errorf(
					"label: cell %s: %s (label %v) follows %s (label %v): labels decrease",
					p.Cell(model.CellID(c)).Name,
					p.OpString(code[i]), cur, p.OpString(code[i-1]), prev)
			}
		}
	}
	return nil
}

// CheckDense is Check over integer labels, a convenience for callers
// holding only dense ranks.
func CheckDense(p *model.Program, dense []int) error {
	labels := make([]rational.R, len(dense))
	for i, d := range dense {
		labels[i] = rational.FromInt(int64(d))
	}
	return Check(p, labels)
}

// UnionFind is a plain disjoint-set structure over message indices.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y.
func (u *UnionFind) Union(x, y int) {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
}

// Same reports whether x and y are in one set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Classes returns the members of each class with ≥1 member, keyed by
// representative, each sorted ascending.
func (u *UnionFind) Classes() map[int][]int {
	members, start := u.classMembers()
	out := make(map[int][]int)
	for r := range u.parent {
		if start[r] < start[r+1] {
			out[r] = members[start[r]:start[r+1]:start[r+1]]
		}
	}
	return out
}

// classMembers lists the members of every class contiguously: the
// class whose representative is r holds members[start[r]:start[r+1]],
// ascending (an empty range unless r is a representative).
func (u *UnionFind) classMembers() (members, start []int) {
	n := len(u.parent)
	start = make([]int, n+1)
	for i := range n {
		start[u.Find(i)]++
	}
	for r := 1; r <= n; r++ {
		start[r] += start[r-1]
	}
	// start[r] now ends class r; filling each class from its end
	// backwards leaves it ascending and start[r] at its beginning.
	members = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		r := u.Find(i)
		start[r]--
		members[start[r]] = i
	}
	return members, start
}
