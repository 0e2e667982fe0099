// Package linkmodel makes inter-cell link timing a pluggable model:
// the unit-latency default the simulator has always had, a fixed
// per-link latency/bandwidth model, and a congestion-sensitive model
// whose hop delay feeds back as backpressure. A Plan is the
// declarative description; Lower compiles it into dense per-link
// delay and credit tables that both execution engines (the compiled
// machine and the full-scan reference) consult at identical points,
// so non-unit-latency runs stay byte-identical across engines and
// worker counts.
//
// Timing semantics (the occupancy model): a link that served w words
// on cycle t is busy — no further word may enter its queues — until
// cycle t+B, where
//
//	B = delay · ceil(w / credit) + extra
//
// delay is the link's per-service latency (1 = unit), credit its
// per-service word bandwidth (0 = unlimited, one service per burst),
// and extra is the congestion model's feedback term
// min(maxExtra, (w-1)/threshold) — zero for the fixed model. A word
// "enters a link's queues" at exactly the points the fault package's
// LinkOpen gate guards, so link timing and fault gating compose at
// the same program points.
//
// Determinism argument: during a cycle's phases the busy state is
// read-only — a pure function of per-link next-free cycles computed
// at the END of the previous cycle from that cycle's per-link word
// tallies. Deadlock
// detection waits for a no-event cycle on which every link is free
// again: busy windows are finite (≤ the tallied words × max factor),
// so a frozen system reaches an all-free cycle and the no-event
// argument of the fault-free engine applies unchanged.
package linkmodel

import (
	"fmt"
	"strconv"
	"strings"

	"systolic/internal/topology"
)

// Kind selects one of the three timing models.
type Kind int

const (
	// Unit is the classical cycle-synchronous model: every hop costs
	// one cycle, links never back up. Lower returns nil for it, so the
	// engines' hot paths pay a single nil test.
	Unit Kind = iota
	// Fixed gives every link a fixed service latency and optional word
	// credit, with per-link overrides.
	Fixed
	// Congestion is Fixed plus a load-feedback term: the more words a
	// link served in a cycle, the longer it stays busy, up to a cap.
	Congestion
)

// maxParam bounds every parsed parameter so lowered tables fit int32
// and derived cycle bounds cannot overflow from a spec alone.
const maxParam = 1 << 20

// Override adjusts one link of a Fixed plan. Zero fields inherit the
// plan-wide value.
type Override struct {
	Link   topology.LinkID
	Delay  int
	Credit int
}

// Plan is a declarative link-timing model for one run. A nil *Plan
// and a Plan that lowers to unit timing (delay ≤ 1, no credit, no
// effective override, not congestion-sensitive) are equivalent, and
// the engines produce byte-identical results for both.
type Plan struct {
	Kind Kind
	// Delay is the plan-wide per-service latency in cycles (0 and 1
	// mean unit latency).
	Delay int
	// Credit is the plan-wide per-service word bandwidth (0 =
	// unlimited: a burst of any size is one service).
	Credit int
	// Threshold and MaxExtra shape the Congestion feedback term
	// min(MaxExtra, (words-1)/Threshold). Threshold 0 defaults to 2.
	Threshold int
	MaxExtra  int
	// Overrides adjusts individual links (Fixed only). At most one
	// override per link; ParseSpec and Validate both enforce this.
	Overrides []Override
}

// Model is the pluggable link-timing interface: anything that can
// render itself in the shared spec grammar and compile to the dense
// tables the engines consult. *Plan is the canonical implementation;
// the engines never call the interface on a hot path — they index
// the compiled tables directly.
type Model interface {
	// Spec is the canonical spec-string form (ParseSpec grammar).
	Spec() string
	// Compile lowers the model against a concrete link count. nil
	// means unit timing.
	Compile(numLinks int) *Lowered
}

// Spec implements Model.
func (p *Plan) Spec() string { return p.String() }

// Compile implements Model. The plan must already be validated.
func (p *Plan) Compile(numLinks int) *Lowered { return Lower(p, numLinks) }

// UnitPlan returns the explicit unit-timing plan ("unit"); nil works
// everywhere a unit plan does.
func UnitPlan() *Plan { return &Plan{Kind: Unit} }

// FixedPlan returns a uniform fixed-latency plan.
func FixedPlan(delay, credit int) *Plan {
	return &Plan{Kind: Fixed, Delay: delay, Credit: credit}
}

// CongestionPlan returns a congestion-sensitive plan.
func CongestionPlan(delay, threshold, maxExtra int) *Plan {
	return &Plan{Kind: Congestion, Delay: delay, Threshold: threshold, MaxExtra: maxExtra}
}

// IsUnit reports whether the plan (possibly nil) times every link
// exactly like the classical unit-latency engine.
func (p *Plan) IsUnit() bool {
	if p == nil || p.Kind == Unit {
		return true
	}
	if p.Kind == Congestion {
		return p.Delay <= 1 && p.Credit == 0 && p.MaxExtra == 0
	}
	if p.Delay > 1 || p.Credit > 0 {
		return false
	}
	for _, o := range p.Overrides {
		if o.Delay > 1 || o.Credit > 0 {
			return false
		}
	}
	return true
}

// Validate checks the plan against a topology of numLinks links:
// parameters in range, overrides only where they are meaningful, and
// at most one override per link. A nil plan is valid.
func (p *Plan) Validate(numLinks int) error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case Unit, Fixed, Congestion:
	default:
		return fmt.Errorf("link model: unknown kind %d", p.Kind)
	}
	check := func(name string, v int) error {
		if v < 0 {
			return fmt.Errorf("link model: negative %s %d", name, v)
		}
		if v > maxParam {
			return fmt.Errorf("link model: %s %d exceeds the maximum %d", name, v, maxParam)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"delay", p.Delay}, {"credit", p.Credit}, {"threshold", p.Threshold}, {"max extra delay", p.MaxExtra}} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.Kind != Fixed && len(p.Overrides) > 0 {
		return fmt.Errorf("link model: per-link overrides apply to the fixed model only")
	}
	seen := make(map[topology.LinkID]bool, len(p.Overrides))
	for _, o := range p.Overrides {
		if int(o.Link) < 0 || int(o.Link) >= numLinks {
			return fmt.Errorf("link model: link %d out of range (topology has %d links)", o.Link, numLinks)
		}
		if seen[o.Link] {
			return fmt.Errorf("link model: link %d has more than one override", o.Link)
		}
		seen[o.Link] = true
		if err := check("delay", o.Delay); err != nil {
			return err
		}
		if err := check("credit", o.Credit); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan as a comma-separated spec in the grammar
// ParseSpec accepts: kind first, plan-wide parameters in fixed order,
// then per-link overrides in declaration order.
// ParseSpec(p.String()) round-trips every valid plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	switch p.Kind {
	case Unit:
		return "unit"
	case Fixed:
		b.WriteString("fixed")
		fmt.Fprintf(&b, ",delay=%d", p.delayOrUnit())
		if p.Credit > 0 {
			fmt.Fprintf(&b, ",credit=%d", p.Credit)
		}
		for _, o := range p.Overrides {
			if o.Delay > 0 {
				fmt.Fprintf(&b, ",link:%d:delay=%d", o.Link, o.Delay)
			}
			if o.Credit > 0 {
				fmt.Fprintf(&b, ",link:%d:credit=%d", o.Link, o.Credit)
			}
		}
	case Congestion:
		b.WriteString("congestion")
		fmt.Fprintf(&b, ",delay=%d,threshold=%d,max=%d", p.delayOrUnit(), p.thresholdOrDefault(), p.MaxExtra)
		if p.Credit > 0 {
			fmt.Fprintf(&b, ",credit=%d", p.Credit)
		}
	}
	return b.String()
}

func (p *Plan) delayOrUnit() int {
	if p.Delay <= 0 {
		return 1
	}
	return p.Delay
}

func (p *Plan) thresholdOrDefault() int {
	if p.Threshold <= 0 {
		return 2
	}
	return p.Threshold
}

// ParseSpec parses a comma-separated link-model spec, the grammar the
// `sysdl run -link-model` flag and the server wire format's
// `linkModel` field share:
//
//	unit                          the classical unit-latency model
//	fixed[,delay=K][,credit=C][,link:IDX:delay=K][,link:IDX:credit=C]
//	congestion[,delay=K][,threshold=T][,max=M][,credit=C]
//
// An empty spec returns a nil plan (unit timing). Repeating a
// parameter — plan-wide or for the same link — is a parse error, not
// a silent last-write-wins. Index bounds are not known here; callers
// run Plan.Validate against the concrete topology.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	p := &Plan{}
	switch strings.TrimSpace(parts[0]) {
	case "unit":
		p.Kind = Unit
	case "fixed":
		p.Kind = Fixed
	case "congestion":
		p.Kind = Congestion
	default:
		return nil, fmt.Errorf("link model spec %q: unknown model %q (want unit, fixed, or congestion)", spec, strings.TrimSpace(parts[0]))
	}
	seen := map[string]bool{}
	type overrideKey struct {
		link  int
		param string
	}
	seenOverride := map[overrideKey]bool{}
	overrides := map[int]*Override{}
	var order []int
	parseVal := func(part, key, val string) (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("link model spec %q: bad %s: %v", part, key, err)
		}
		return n, nil
	}
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if strings.HasPrefix(part, "link:") {
			if p.Kind != Fixed {
				return nil, fmt.Errorf("link model spec %q: per-link overrides apply to the fixed model only", part)
			}
			fields := strings.SplitN(part, ":", 3)
			if len(fields) != 3 {
				return nil, fmt.Errorf("link model spec %q: want link:IDX:delay=K or link:IDX:credit=C", part)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("link model spec %q: bad link index: %v", part, err)
			}
			key, val, ok := strings.Cut(fields[2], "=")
			if !ok || (key != "delay" && key != "credit") {
				return nil, fmt.Errorf("link model spec %q: unknown link parameter %q (want delay=K or credit=C)", part, fields[2])
			}
			if seenOverride[overrideKey{idx, key}] {
				return nil, fmt.Errorf("link model spec %q: duplicate %s for link %d", part, key, idx)
			}
			seenOverride[overrideKey{idx, key}] = true
			n, err := parseVal(part, key, val)
			if err != nil {
				return nil, err
			}
			o := overrides[idx]
			if o == nil {
				o = &Override{Link: topology.LinkID(idx)}
				overrides[idx] = o
				order = append(order, idx)
			}
			if key == "delay" {
				o.Delay = n
			} else {
				o.Credit = n
			}
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("link model spec %q: want key=value", part)
		}
		if seen[key] {
			return nil, fmt.Errorf("link model spec %q: duplicate parameter %q", part, key)
		}
		seen[key] = true
		n, err := parseVal(part, key, val)
		if err != nil {
			return nil, err
		}
		switch key {
		case "delay":
			p.Delay = n
		case "credit":
			p.Credit = n
		case "threshold":
			if p.Kind != Congestion {
				return nil, fmt.Errorf("link model spec %q: threshold applies to the congestion model only", part)
			}
			p.Threshold = n
		case "max":
			if p.Kind != Congestion {
				return nil, fmt.Errorf("link model spec %q: max applies to the congestion model only", part)
			}
			p.MaxExtra = n
		default:
			return nil, fmt.Errorf("link model spec %q: unknown parameter %q (want delay, credit, threshold, or max)", part, key)
		}
	}
	for _, idx := range order {
		p.Overrides = append(p.Overrides, *overrides[idx])
	}
	return p, nil
}

// Lowered is a Plan compiled against a concrete topology: dense
// per-link delay and credit tables the engines' hot paths index
// directly, plus the congestion feedback parameters. Immutable after
// Lower; safe to share read-only across concurrent runs.
type Lowered struct {
	delay      []int32
	credit     []int32
	congestion bool
	threshold  int32
	maxExtra   int32
	maxFactor  int
	desc       string
}

// Lower compiles a validated plan against a topology of numLinks
// links. It returns nil for a unit-timing plan, so callers can gate
// every hot-path check on a single nil test.
func Lower(p *Plan, numLinks int) *Lowered {
	if p.IsUnit() {
		return nil
	}
	l := &Lowered{
		delay:     make([]int32, numLinks),
		credit:    make([]int32, numLinks),
		threshold: int32(p.thresholdOrDefault()),
		maxFactor: 1,
		desc:      p.String(),
	}
	base := int32(p.delayOrUnit())
	for i := range l.delay {
		l.delay[i] = base
		l.credit[i] = int32(p.Credit)
	}
	if p.Kind == Congestion {
		l.congestion = true
		l.maxExtra = int32(p.MaxExtra)
	}
	for _, o := range p.Overrides {
		if o.Delay > 0 {
			l.delay[o.Link] = int32(o.Delay)
		}
		if o.Credit > 0 {
			l.credit[o.Link] = int32(o.Credit)
		}
	}
	for _, d := range l.delay {
		if f := int(d) + int(l.maxExtra); f > l.maxFactor {
			l.maxFactor = f
		}
	}
	return l
}

// Busy returns how many cycles link lk stays busy after serving
// tally words in one cycle: delay·ceil(tally/credit) plus the
// congestion feedback min(maxExtra, (tally-1)/threshold). tally must
// be ≥ 1. The result is ≥ 1; 1 reproduces unit timing (free again
// next cycle).
//
//sysvet:hotpath
func (l *Lowered) Busy(lk topology.LinkID, tally int32) int {
	slots := 1
	if c := l.credit[lk]; c > 0 && tally > c {
		slots = int((tally + c - 1) / c)
	}
	b := int(l.delay[lk]) * slots
	if l.congestion {
		extra := (tally - 1) / l.threshold
		if extra > l.maxExtra {
			extra = l.maxExtra
		}
		b += int(extra)
	}
	return b
}

// MaxFactor returns the largest per-service delay any link can incur
// (base delay plus the congestion cap, ≥ 1): the multiplier the
// engines apply to their derived default cycle bound, since every
// word a link serves holds it for at most MaxFactor cycles.
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

// Description returns the model in canonical spec form.
func (l *Lowered) Description() string {
	return l.desc
}
