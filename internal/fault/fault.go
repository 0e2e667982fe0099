// Package fault models degraded arrays: slowed or dead cells and
// throttled or severed links, each optionally taking effect from a
// given cycle. A Plan is the declarative description; Lower compiles
// it into dense per-cell and per-link gate tables that both execution
// engines (the compiled machine and the full-scan reference) consult
// at identical points, so degraded runs stay byte-identical across
// engines and worker counts.
//
// Determinism argument: every gate is a pure function of (static
// plan, cycle number). A slowed element with factor k accepts work
// only on cycles that are multiples of k — a global phase, not one
// relative to the fault's effective-from cycle — so all periodic
// gates open simultaneously on common multiples. Deadlock detection
// waits for such an all-open cycle: the system's state evolves only
// on events, so a no-event cycle with every periodic gate open proves
// no future cycle can make progress either, exactly as in the
// fault-free engine. Dead cells and severed links never reopen; work
// depending on them stalls into an ordinary detected deadlock.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// CellFault degrades one cell: a periodic slowdown (the cell issues
// reads/writes only every Factor-th cycle), or death (the cell never
// issues again). Interior word forwarding through the cell is NOT
// gated by a cell fault — forwarding belongs to the communication
// agent (§2), which the link faults model.
type CellFault struct {
	// Cell is the degraded cell.
	Cell model.CellID
	// Factor is the periodic slowdown: the cell may issue only on
	// cycles divisible by Factor. 0 and 1 mean no slowdown.
	Factor int
	// Dead marks the cell permanently unable to issue from From on.
	Dead bool
	// From is the first cycle the fault is in effect (0 = always).
	From int
}

// LinkFault degrades one link: a periodic throttle (words may enter
// the link's queues only every Factor-th cycle) or a severed link (no
// word ever enters again). Words already buffered on the link may
// still be read out — they crossed before the fault bit.
type LinkFault struct {
	// Link is the degraded link.
	Link topology.LinkID
	// Factor is the periodic throttle: words enter the link's queues
	// only on cycles divisible by Factor. 0 and 1 mean no throttle.
	Factor int
	// Severed marks the link permanently closed from From on.
	Severed bool
	// From is the first cycle the fault is in effect (0 = always).
	From int
}

// Plan is a set of faults to apply to one run. At most one fault per
// cell and per link; Validate enforces this along with index bounds.
// A nil *Plan, an empty Plan, and a Plan whose every entry is a no-op
// (factor ≤ 1, not dead, not severed) are all equivalent to running
// fault-free, and the engines produce byte-identical results for all
// three (the property suite pins this).
type Plan struct {
	Cells []CellFault
	Links []LinkFault
}

// IsNoop reports whether the plan (possibly nil) degrades nothing.
func (p *Plan) IsNoop() bool {
	if p == nil {
		return true
	}
	for _, c := range p.Cells {
		if c.Dead || c.Factor > 1 {
			return false
		}
	}
	for _, l := range p.Links {
		if l.Severed || l.Factor > 1 {
			return false
		}
	}
	return true
}

// PeriodicOnly reports whether the plan (possibly nil) contains no
// dead cells and no severed links — only slowdowns, which delay but
// can never remove progress. An analyzer-approved configuration under
// a periodic-only plan must still complete; the differential oracle's
// degraded-completion invariant enforces exactly this.
func (p *Plan) PeriodicOnly() bool {
	if p == nil {
		return true
	}
	for _, c := range p.Cells {
		if c.Dead {
			return false
		}
	}
	for _, l := range p.Links {
		if l.Severed {
			return false
		}
	}
	return true
}

// Validate checks the plan against an array of numCells cells and
// numLinks links: indexes in range, factors non-negative, no dead
// element that also declares a slowdown, and at most one fault per
// cell and per link. A nil plan is valid.
func (p *Plan) Validate(numCells, numLinks int) error {
	if p == nil {
		return nil
	}
	seenCell := make(map[model.CellID]bool, len(p.Cells))
	for _, c := range p.Cells {
		if int(c.Cell) < 0 || int(c.Cell) >= numCells {
			return fmt.Errorf("cell %d out of range (array has %d cells)", c.Cell, numCells)
		}
		if seenCell[c.Cell] {
			return fmt.Errorf("cell %d has more than one fault", c.Cell)
		}
		seenCell[c.Cell] = true
		if c.Factor < 0 {
			return fmt.Errorf("cell %d: negative slowdown factor %d", c.Cell, c.Factor)
		}
		if c.Dead && c.Factor > 1 {
			return fmt.Errorf("cell %d: dead cell cannot also declare slowdown factor %d", c.Cell, c.Factor)
		}
		if c.From < 0 {
			return fmt.Errorf("cell %d: negative effective-from cycle %d", c.Cell, c.From)
		}
	}
	seenLink := make(map[topology.LinkID]bool, len(p.Links))
	for _, l := range p.Links {
		if int(l.Link) < 0 || int(l.Link) >= numLinks {
			return fmt.Errorf("link %d out of range (topology has %d links)", l.Link, numLinks)
		}
		if seenLink[l.Link] {
			return fmt.Errorf("link %d has more than one fault", l.Link)
		}
		seenLink[l.Link] = true
		if l.Factor < 0 {
			return fmt.Errorf("link %d: negative throttle factor %d", l.Link, l.Factor)
		}
		if l.Severed && l.Factor > 1 {
			return fmt.Errorf("link %d: severed link cannot also declare throttle factor %d", l.Link, l.Factor)
		}
		if l.From < 0 {
			return fmt.Errorf("link %d: negative effective-from cycle %d", l.Link, l.From)
		}
	}
	return nil
}

// describeCell renders one cell fault canonically (the spec grammar
// ParseSpec accepts).
func describeCell(c CellFault) string {
	var b strings.Builder
	b.WriteString("cell:")
	b.WriteString(strconv.Itoa(int(c.Cell)))
	if c.Dead {
		b.WriteString(":dead")
	} else {
		b.WriteString(":slow=")
		b.WriteString(strconv.Itoa(c.Factor))
	}
	if c.From > 0 {
		b.WriteString("@")
		b.WriteString(strconv.Itoa(c.From))
	}
	return b.String()
}

// describeLink renders one link fault canonically.
func describeLink(l LinkFault) string {
	var b strings.Builder
	b.WriteString("link:")
	b.WriteString(strconv.Itoa(int(l.Link)))
	if l.Severed {
		b.WriteString(":sever")
	} else {
		b.WriteString(":slow=")
		b.WriteString(strconv.Itoa(l.Factor))
	}
	if l.From > 0 {
		b.WriteString("@")
		b.WriteString(strconv.Itoa(l.From))
	}
	return b.String()
}

// String renders the plan as a comma-separated spec, cells first then
// links, each in declaration order. ParseSpec(p.String()) round-trips
// every valid plan with factors ≥ 2.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Cells)+len(p.Links))
	for _, c := range p.Cells {
		parts = append(parts, describeCell(c))
	}
	for _, l := range p.Links {
		parts = append(parts, describeLink(l))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault spec, the grammar the
// `sysdl run -fault` flag and the server wire format's string form
// share:
//
//	cell:IDX:slow=K[@FROM]   periodic cell slowdown, factor K
//	cell:IDX:dead[@FROM]     dead cell
//	link:IDX:slow=K[@FROM]   periodic link throttle, factor K
//	link:IDX:sever[@FROM]    severed link
//
// The optional @FROM suffix delays the fault to cycle FROM; @0 is
// accepted and means "from the start", the same as no suffix (the
// canonical String form omits it). An empty spec returns a nil plan.
// Naming one cell or link twice is a parse error, not a silent
// last-write-wins: a plan can hold at most one fault per element, and
// Lower without an intervening Validate used to keep whichever
// duplicate came last. Index bounds are not known here; callers run
// Plan.Validate against the concrete scenario.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{}
	seenCell := map[int]bool{}
	seenLink := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fields := strings.SplitN(part, ":", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("fault spec %q: want kind:index:effect", part)
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fault spec %q: bad index: %v", part, err)
		}
		effect := fields[2]
		from := 0
		if at := strings.IndexByte(effect, '@'); at >= 0 {
			from, err = strconv.Atoi(effect[at+1:])
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: bad effective-from cycle: %v", part, err)
			}
			if from < 0 {
				return nil, fmt.Errorf("fault spec %q: negative effective-from cycle %d", part, from)
			}
			effect = effect[:at]
		}
		factor := 0
		terminal := false
		switch {
		case effect == "dead" || effect == "sever":
			terminal = true
		case strings.HasPrefix(effect, "slow="):
			factor, err = strconv.Atoi(strings.TrimPrefix(effect, "slow="))
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: bad slowdown factor: %v", part, err)
			}
		default:
			return nil, fmt.Errorf("fault spec %q: unknown effect %q (want slow=K, dead, or sever)", part, effect)
		}
		switch fields[0] {
		case "cell":
			if effect == "sever" {
				return nil, fmt.Errorf("fault spec %q: cells die, links sever", part)
			}
			if seenCell[idx] {
				return nil, fmt.Errorf("fault spec %q: cell %d already has a fault in this spec (one fault per cell)", part, idx)
			}
			seenCell[idx] = true
			p.Cells = append(p.Cells, CellFault{Cell: model.CellID(idx), Factor: factor, Dead: terminal, From: from})
		case "link":
			if effect == "dead" {
				return nil, fmt.Errorf("fault spec %q: links sever, cells die", part)
			}
			if seenLink[idx] {
				return nil, fmt.Errorf("fault spec %q: link %d already has a fault in this spec (one fault per link)", part, idx)
			}
			seenLink[idx] = true
			p.Links = append(p.Links, LinkFault{Link: topology.LinkID(idx), Factor: factor, Severed: terminal, From: from})
		default:
			return nil, fmt.Errorf("fault spec %q: unknown kind %q (want cell or link)", part, fields[0])
		}
	}
	return p, nil
}

// periodicGate is one compiled slowdown for the all-open deadlock
// check.
type periodicGate struct {
	factor int
	from   int
}

// Lowered is a Plan compiled against a concrete array: dense per-cell
// and per-link tables the engines' hot paths index directly. Factor
// encoding: 0 = no fault, ≥ 2 = periodic factor, -1 = dead/severed.
// Immutable after Lower; safe to share read-only across concurrent runs.
type Lowered struct {
	cellFactor []int32
	cellFrom   []int32
	linkFactor []int32
	linkFrom   []int32
	periodic   []periodicGate
	maxFactor  int
	descs      []string
}

// Lower compiles a validated plan against an array of numCells cells
// and numLinks links. It returns nil for a no-op plan, so callers can
// gate every hot-path check on a single nil test.
func Lower(p *Plan, numCells, numLinks int) *Lowered {
	if p.IsNoop() {
		return nil
	}
	l := &Lowered{
		cellFactor: make([]int32, numCells),
		cellFrom:   make([]int32, numCells),
		linkFactor: make([]int32, numLinks),
		linkFrom:   make([]int32, numLinks),
		maxFactor:  1,
	}
	for _, c := range p.Cells {
		if !c.Dead && c.Factor <= 1 {
			continue
		}
		f := int32(-1)
		if !c.Dead {
			f = int32(c.Factor)
			l.periodic = append(l.periodic, periodicGate{factor: c.Factor, from: c.From})
			if c.Factor > l.maxFactor {
				l.maxFactor = c.Factor
			}
		}
		l.cellFactor[c.Cell] = f
		l.cellFrom[c.Cell] = int32(c.From)
		l.descs = append(l.descs, describeCell(c))
	}
	for _, lf := range p.Links {
		if !lf.Severed && lf.Factor <= 1 {
			continue
		}
		f := int32(-1)
		if !lf.Severed {
			f = int32(lf.Factor)
			l.periodic = append(l.periodic, periodicGate{factor: lf.Factor, from: lf.From})
			if lf.Factor > l.maxFactor {
				l.maxFactor = lf.Factor
			}
		}
		l.linkFactor[lf.Link] = f
		l.linkFrom[lf.Link] = int32(lf.From)
		l.descs = append(l.descs, describeLink(lf))
	}
	return l
}

// CellOpen reports whether cell c may issue an operation on cycle.
//
//sysvet:hotpath
func (l *Lowered) CellOpen(c model.CellID, cycle int) bool {
	f := l.cellFactor[c]
	if f == 0 || cycle < int(l.cellFrom[c]) {
		return true
	}
	if f < 0 {
		return false
	}
	return cycle%int(f) == 0
}

// LinkOpen reports whether a word may enter link lk's queues on cycle.
//
//sysvet:hotpath
func (l *Lowered) LinkOpen(lk topology.LinkID, cycle int) bool {
	f := l.linkFactor[lk]
	if f == 0 || cycle < int(l.linkFrom[lk]) {
		return true
	}
	if f < 0 {
		return false
	}
	return cycle%int(f) == 0
}

// AllPeriodicOpen reports whether every periodic gate is open on
// cycle. A no-event cycle that satisfies this is a true deadlock:
// dead and severed elements never reopen, every slowed element was
// offered the cycle, and the state cannot change without an event.
//
//sysvet:hotpath
func (l *Lowered) AllPeriodicOpen(cycle int) bool {
	for _, g := range l.periodic {
		if cycle >= g.from && cycle%g.factor != 0 {
			return false
		}
	}
	return true
}

// MaxFactor returns the largest periodic factor in the plan (≥ 1):
// the multiplier the engines apply to their derived default cycle
// bound, since a factor-k slowdown stretches any schedule by ≤ k.
func (l *Lowered) MaxFactor() int {
	return l.maxFactor
}

// ScaleCycles scales a derived cycle bound by MaxFactor, reporting
// failure instead of overflowing.
func (l *Lowered) ScaleCycles(n int) (int, bool) {
	f := l.maxFactor
	if f <= 1 {
		return n, true
	}
	const maxInt = int(^uint(0) >> 1)
	if n > maxInt/f {
		return 0, false
	}
	return n * f, true
}

// Descriptions returns the active (non-no-op) faults in canonical
// spec form, cells first then links, each in plan order. The slice is
// computed once at Lower and shared; callers must not modify it.
func (l *Lowered) Descriptions() []string {
	return l.descs
}
