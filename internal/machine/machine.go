// Package machine is the compile-once execution core: it lowers an
// analyzed scenario (program, topology, routes, labels) into a flat,
// index-based intermediate representation — per-cell op streams,
// per-hop pool tables, precomputed competing sets — that one Compile
// call produces and unlimited Run calls consume.
//
// The split mirrors what cycle-accurate co-simulation platforms do to
// reach production throughput: all per-scenario derivation (routing,
// pool layout, label ordering) happens once, so the per-run cost is
// pure simulation, and the per-cycle cost is driven by a ready-set
// scheduler (see exec.go) that revisits only the cells, messages, and
// queue pools an event has actually touched — O(active) instead of the
// former full O(cells + queues + messages) scan.
//
// A *Machine is immutable after Compile and safe for concurrent Run
// calls: each run borrows a pooled execution context sized for the
// machine. The scheduler is cycle-for-cycle equivalent to the
// reference full-scan engine kept in internal/sim; the equivalence
// suite there replays the fuzz corpus plus hundreds of generated
// scenarios through both and demands byte-identical Results.
package machine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// Word re-exports the queue word type.
type Word = queue.Word

// ConfigError is a typed rejection of an invalid configuration: the
// named field cannot be compiled or simulated. Callers assembling
// configurations mechanically detect it with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

// Error renders the rejection.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("machine: config %s: %s", e.Field, e.Reason)
}

// CellLogic supplies word values so workloads can verify end-to-end
// arithmetic (e.g. the FIR outputs of Fig 2). Calls follow program
// order per cell: OnRead when a read completes, Produce when a write
// issues. Implementations may keep per-cell registers.
type CellLogic interface {
	// OnRead observes the index-th word (0-based) of msg arriving at
	// cell.
	OnRead(cell model.CellID, msg model.MessageID, index int, w Word)
	// Produce returns the value of the index-th word (0-based) of msg,
	// written by cell.
	Produce(cell model.CellID, msg model.MessageID, index int) Word
}

// SyntheticLogic is the default CellLogic: word i of message m carries
// the value m*1e6 + i, so transport bugs (reordering, loss,
// cross-wiring) are detectable without workload semantics.
type SyntheticLogic struct{}

// OnRead is a no-op.
func (SyntheticLogic) OnRead(model.CellID, model.MessageID, int, Word) {}

// Produce encodes (message, index).
func (SyntheticLogic) Produce(_ model.CellID, msg model.MessageID, index int) Word {
	return Word(float64(msg)*1e6 + float64(index))
}

// BindEvent is one timeline entry: a queue bound to or released from a
// message.
type BindEvent struct {
	Cycle int
	Link  topology.LinkID
	// QueueIdx indexes the queue within its link: 0..Q-1 for the
	// shared pool, 0..2Q-1 under DirectionalPools (forward pool
	// first, then reverse), so (Link, QueueIdx) is always unique.
	QueueIdx int
	Msg      model.MessageID
	Bound    bool // true = bound, false = released
}

// CellBlock describes why a cell was stuck when a deadlock was
// detected.
type CellBlock struct {
	Cell   model.CellID
	Op     model.Op
	OpIdx  int
	Reason string
}

// QueueStat pairs a queue's identity with its counters.
type QueueStat struct {
	Link     topology.LinkID
	QueueIdx int
	Stats    queue.Stats
}

// Stats aggregates run counters.
type Stats struct {
	Cycles     int
	WordsMoved int // total hop traversals (incl. final reads)
	Grants     int
	Releases   int
	// GatedOps counts operations that were ready by every fault-free
	// criterion but were held back by a fault gate that cycle. Zero on
	// unfaulted runs; under faults it is the run's stall-pressure
	// measure, identical across engines and worker counts.
	GatedOps      int
	BlockedCycles []int // per cell: cycles spent with a stalled op
	Queues        []QueueStat
}

// Result reports a run's outcome.
type Result struct {
	// Exactly one of Completed, Deadlocked, TimedOut is true.
	Completed  bool
	Deadlocked bool
	TimedOut   bool
	Cycles     int
	// Received holds, per message, the words observed by the
	// receiver in arrival order (length == Words on completion).
	Received [][]Word
	// Blocked describes stuck cells when Deadlocked.
	Blocked []CellBlock
	// Faults lists the active (non-no-op) faults of the run's
	// FaultPlan in canonical spec form; nil on fault-free runs.
	Faults []string
	// Timeline is non-nil when ExecOptions.RecordTimeline.
	Timeline []BindEvent
	Stats    Stats
}

// Outcome returns "completed", "deadlocked" or "timed-out".
func (r *Result) Outcome() string {
	switch {
	case r.Completed:
		return "completed"
	case r.Deadlocked:
		return "deadlocked"
	default:
		return "timed-out"
	}
}

// DescribeBlocked renders a deadlock report, one line per stuck cell.
func DescribeBlocked(p *model.Program, blocked []CellBlock) string {
	var b []byte
	for _, cb := range blocked {
		b = append(b, fmt.Sprintf("%s stuck at %s: %s\n", p.Cell(cb.Cell).Name, p.OpString(cb.Op), cb.Reason)...)
	}
	return string(b)
}

// ExecOptions parameterizes one run of a compiled machine. Everything
// the compile step could not fix — queue budgets, capacities, the
// policy instance, logic — is chosen here, so one machine serves an
// entire policy × queues × capacity grid.
type ExecOptions struct {
	// Policy decides queue bindings. Required; instances are stateful
	// and must not be shared between concurrent runs.
	Policy assign.Policy
	// QueuesPerLink is the fixed number of queues on every link
	// (§2.3). Must be ≥ 1.
	QueuesPerLink int
	// Capacity is each queue's base capacity in words. 0 models the
	// paper's unbuffered latch: transfers happen only as same-cycle
	// rendezvous, which restricts every route to a single hop.
	Capacity int
	// ExtCapacity and ExtPenalty model the iWarp queue extension
	// (§8.1): extra buffering beyond Capacity at ExtPenalty additional
	// cycles per extension access.
	ExtCapacity int
	ExtPenalty  int
	// DirectionalPools splits every link's queue pool in two, one per
	// traffic direction (§2.3 note).
	DirectionalPools bool
	// Logic supplies word values; nil means SyntheticLogic.
	Logic CellLogic
	// MaxCycles bounds the run; ≤ 0 means a default derived from
	// program size (guarded against integer overflow).
	MaxCycles int
	// RecordTimeline captures bind/release events for rendering
	// (Fig 7's lower half).
	RecordTimeline bool
	// Faults degrades the array for this run: slowed or dead cells,
	// throttled or severed links (see internal/fault). nil (or a
	// no-op plan) runs the perfect array, byte-identically to a run
	// with no plan at all. Faults are per-run, like queue budgets:
	// one compiled machine serves faulted and fault-free runs alike.
	Faults *fault.Plan
	// LinkModel retimes the interconnect for this run: each link serves
	// the words that crossed it in a cycle and then stays busy for a
	// model-determined window (fixed per-link latency/bandwidth, or
	// congestion-sensitive backpressure — see internal/linkmodel). nil
	// (or a unit plan) keeps the paper's unit-latency links,
	// byte-identically to a run with no model at all. Like Faults, the
	// model is per-run: one compiled machine serves every timing.
	LinkModel *linkmodel.Plan
	// Context, when non-nil, cancels the run between cycles: Run
	// returns a wrapped context error instead of a Result. A nil
	// Context never cancels.
	Context context.Context
}

// hopRef is one compiled route hop: the physical link plus the queue
// pool serving it under each pool regime (index 0 = shared pool,
// index 1 = directional pools).
type hopRef struct {
	link topology.LinkID
	pool [2]int32
}

// poolTable is the per-regime pool layout: competing sets and, when
// labels exist, the label-sorted grant order, all precomputed at
// compile so every run (and every policy Setup) shares them
// read-only.
type poolTable struct {
	numPools int
	// competing keeps the map form of the competing sets for the
	// assign.Context contract; competingByPool is the dense view.
	competing       map[topology.LinkID][]model.MessageID
	competingByPool [][]model.MessageID
	// labelOrder is each pool's competing set sorted by (label,
	// message id); nil when the machine was compiled without labels.
	labelOrder [][]model.MessageID
}

// Machine is the immutable compiled form of one analyzed scenario.
// Compile it once; Run it as many times as the parameter grid needs,
// concurrently if desired.
type Machine struct {
	prog   *model.Program
	topo   topology.Topology
	routes [][]topology.Hop
	labels []int
	links  []topology.Link

	// Flat per-cell op streams: cell c's code is ops[opOff[c]:opOff[c+1]].
	ops   []model.Op
	opOff []int32

	// Flat per-message hop tables: message m's hops are
	// hops[hopOff[m]:hopOff[m+1]].
	hops   []hopRef
	hopOff []int32

	words            []int   // per message: declared word count
	wordOff          []int32 // prefix sums of words: arena offsets for received words
	sender, receiver []model.CellID

	totalWords, totalHops int
	maxRouteLen           int
	multiHopMsg           model.MessageID // first msg with a multi-hop route; -1 if none
	codeCells             int             // cells with a non-empty op stream

	shared, directional poolTable

	// execs holds the pooled *exec scratch. It is an atomic pointer
	// so Reset can swap in a fresh pool while concurrent Runs keep
	// using (and eventually abandon) the old one.
	execs atomic.Pointer[sync.Pool]
}

// Compile lowers a validated program over a topology into the flat
// machine IR. routes may be nil (they are computed); when provided
// they must be indexed by message id and match the topology. labels
// (dense, per message) are optional; without them label-ordered
// policies refuse to Setup, exactly as before.
func Compile(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) (*Machine, error) {
	if p == nil {
		return nil, &ConfigError{Field: "Program", Reason: "nil program"}
	}
	if t == nil {
		return nil, &ConfigError{Field: "Topology", Reason: "nil topology"}
	}
	if routes == nil {
		var err error
		routes, err = topology.Routes(p, t)
		if err != nil {
			return nil, err
		}
	} else if len(routes) != p.NumMessages() {
		return nil, &ConfigError{Field: "Routes", Reason: fmt.Sprintf("%d entries for %d messages", len(routes), p.NumMessages())}
	}
	if labels != nil && len(labels) != p.NumMessages() {
		return nil, &ConfigError{Field: "Labels", Reason: fmt.Sprintf("%d labels for %d messages", len(labels), p.NumMessages())}
	}

	m := &Machine{
		prog:        p,
		topo:        t,
		routes:      routes,
		labels:      labels,
		links:       t.Links(),
		multiHopMsg: -1,
	}

	// Per-cell op streams.
	cells := p.NumCells()
	m.opOff = make([]int32, cells+1)
	for c := 0; c < cells; c++ {
		code := p.Code(model.CellID(c))
		m.opOff[c+1] = m.opOff[c] + int32(len(code))
		if len(code) > 0 {
			m.codeCells++
		}
	}
	m.ops = make([]model.Op, m.opOff[cells])
	for c := 0; c < cells; c++ {
		copy(m.ops[m.opOff[c]:m.opOff[c+1]], p.Code(model.CellID(c)))
	}

	// Per-message declarations and hop tables with precomputed pool
	// ids for both pool regimes.
	msgs := p.NumMessages()
	m.words = make([]int, msgs)
	m.sender = make([]model.CellID, msgs)
	m.receiver = make([]model.CellID, msgs)
	m.hopOff = make([]int32, msgs+1)
	m.wordOff = make([]int32, msgs+1)
	for _, decl := range p.Messages() {
		m.words[decl.ID] = decl.Words
		m.sender[decl.ID] = decl.Sender
		m.receiver[decl.ID] = decl.Receiver
		m.totalWords += decl.Words
	}
	for id := 0; id < msgs; id++ {
		m.wordOff[id+1] = m.wordOff[id] + int32(m.words[id])
	}
	for id, rt := range routes {
		m.hopOff[id+1] = m.hopOff[id] + int32(len(rt))
		m.totalHops += len(rt)
		if len(rt) > m.maxRouteLen {
			m.maxRouteLen = len(rt)
		}
		if len(rt) > 1 && m.multiHopMsg < 0 {
			m.multiHopMsg = model.MessageID(id)
		}
	}
	m.hops = make([]hopRef, m.totalHops)
	for id, rt := range routes {
		off := m.hopOff[id]
		for i, h := range rt {
			dir := int32(0)
			if h.From != m.links[h.Link].A {
				dir = 1
			}
			m.hops[off+int32(i)] = hopRef{
				link: h.Link,
				pool: [2]int32{int32(h.Link), 2*int32(h.Link) + dir},
			}
		}
	}

	m.shared = m.buildPoolTable(0, len(m.links))
	m.directional = m.buildPoolTable(1, 2*len(m.links))

	m.execs.Store(&sync.Pool{New: func() any { return new(exec) }})
	return m, nil
}

// buildPoolTable derives one regime's competing sets (in the exact
// message-ascending append order the per-run construction used to
// produce) and, when labels exist, the label-sorted grant order.
func (m *Machine) buildPoolTable(flavor, numPools int) poolTable {
	tbl := poolTable{
		numPools:        numPools,
		competing:       make(map[topology.LinkID][]model.MessageID),
		competingByPool: make([][]model.MessageID, numPools),
	}
	for id := range m.routes {
		for _, h := range m.msgHops(model.MessageID(id)) {
			pool := h.pool[flavor]
			tbl.competingByPool[pool] = append(tbl.competingByPool[pool], model.MessageID(id))
		}
	}
	for pool, msgs := range tbl.competingByPool {
		if len(msgs) > 0 {
			tbl.competing[topology.LinkID(pool)] = msgs
		}
	}
	if m.labels != nil {
		tbl.labelOrder = make([][]model.MessageID, numPools)
		for pool, msgs := range tbl.competingByPool {
			if len(msgs) == 0 {
				continue
			}
			sorted := append([]model.MessageID(nil), msgs...)
			sort.Slice(sorted, func(i, j int) bool {
				li, lj := m.labels[sorted[i]], m.labels[sorted[j]]
				if li != lj {
					return li < lj
				}
				return sorted[i] < sorted[j]
			})
			tbl.labelOrder[pool] = sorted
		}
	}
	return tbl
}

// code returns cell c's op stream.
func (m *Machine) code(c int) []model.Op {
	return m.ops[m.opOff[c]:m.opOff[c+1]]
}

// msgHops returns message id's compiled hop table.
func (m *Machine) msgHops(id model.MessageID) []hopRef {
	return m.hops[m.hopOff[id]:m.hopOff[id+1]]
}

// Program returns the compiled program.
func (m *Machine) Program() *model.Program { return m.prog }

// Topology returns the compiled topology.
func (m *Machine) Topology() topology.Topology { return m.topo }

// Routes returns the compiled routes, indexed by message id. The
// result is shared and must not be modified.
func (m *Machine) Routes() [][]topology.Hop { return m.routes }

// Reset discards the machine's pooled execution scratch, releasing
// the memory retained for run reuse. The machine itself stays valid:
// the next Run simply pays one fresh allocation. Concurrent Run calls
// are unaffected beyond that — a run in flight keeps the pool it
// started with and abandons it on completion.
func (m *Machine) Reset() {
	m.execs.Store(&sync.Pool{New: func() any { return new(exec) }})
}

// prepare validates opts, applies defaults (Logic, MaxCycles), and
// resolves the pool regime plus the lowered fault and link-timing
// tables. It is the shared front half of Run and Exec.Run, so both
// reject configurations with identical errors.
func (m *Machine) prepare(opts *ExecOptions) (maxCycles int, tbl *poolTable, flavor int, flt *fault.Lowered, lm *linkmodel.Lowered, err error) {
	if opts.Policy == nil {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Policy", Reason: "nil policy"}
	}
	if opts.QueuesPerLink < 1 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "QueuesPerLink", Reason: fmt.Sprintf("%d < 1 (every link needs at least one queue, §2.3)", opts.QueuesPerLink)}
	}
	if opts.Capacity < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Capacity", Reason: fmt.Sprintf("negative capacity %d", opts.Capacity)}
	}
	if opts.ExtCapacity < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtCapacity", Reason: fmt.Sprintf("negative extension capacity %d", opts.ExtCapacity)}
	}
	if opts.ExtPenalty < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtPenalty", Reason: fmt.Sprintf("negative extension penalty %d", opts.ExtPenalty)}
	}
	if opts.Capacity == 0 {
		if m.multiHopMsg >= 0 {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "Capacity", Reason: fmt.Sprintf(
				"capacity 0 (latch) supports single-hop routes only; message %s crosses %d links",
				m.prog.Message(m.multiHopMsg).Name, len(m.routes[m.multiHopMsg]))}
		}
		if opts.ExtCapacity > 0 {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtCapacity", Reason: "queue extension requires base capacity ≥ 1"}
		}
	}
	if opts.Faults != nil {
		if ferr := opts.Faults.Validate(m.prog.NumCells(), len(m.links)); ferr != nil {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "Faults", Reason: ferr.Error()}
		}
		flt = fault.Lower(opts.Faults, m.prog.NumCells(), len(m.links))
	}
	if opts.LinkModel != nil {
		if lerr := opts.LinkModel.Validate(len(m.links)); lerr != nil {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "LinkModel", Reason: lerr.Error()}
		}
		lm = linkmodel.Lower(opts.LinkModel, len(m.links))
	}
	if opts.Logic == nil {
		opts.Logic = SyntheticLogic{}
	}
	maxCycles = opts.MaxCycles
	if maxCycles <= 0 {
		linkFactor := 1
		if lm != nil {
			// The derived bound must scale with the slowest link or
			// slow-link runs are misreported as deadlocks; see
			// maxCyclesFor.
			linkFactor = lm.MaxFactor()
		}
		maxCycles, err = maxCyclesFor(m.totalWords, m.totalHops, linkFactor)
		if err != nil {
			return 0, nil, 0, nil, nil, err
		}
		if flt != nil {
			// A factor-k slowdown stretches any schedule by at most k,
			// so the derived bound scales by the largest factor; a
			// user-set MaxCycles is never second-guessed.
			scaled, ok := flt.ScaleCycles(maxCycles)
			if !ok {
				return 0, nil, 0, nil, nil, &ConfigError{Field: "MaxCycles", Reason: fmt.Sprintf(
					"derived cycle bound %d×%d (fault slowdown) overflows int; set MaxCycles explicitly", maxCycles, flt.MaxFactor())}
			}
			maxCycles = scaled
		}
	}
	tbl = &m.shared
	if opts.DirectionalPools {
		tbl = &m.directional
		flavor = 1
	}
	return maxCycles, tbl, flavor, flt, lm, nil
}

// runExec drives one prepared run on e: init, policy setup, the
// scheduler loop. On success the caller harvests e.result(); on error
// e can be released or reused.
func (m *Machine) runExec(e *exec, opts *ExecOptions, tbl *poolTable, flavor, maxCycles int, flt *fault.Lowered, lm *linkmodel.Lowered) error {
	e.init(m, opts, tbl, flavor, flt, lm)
	e.ctx = assign.Context{
		Program:         m.prog,
		Routes:          m.routes,
		Competing:       tbl.competing,
		CompetingByPool: tbl.competingByPool,
		LabelOrder:      tbl.labelOrder,
		NumPools:        tbl.numPools,
		Labels:          m.labels,
		QueuesPerLink:   opts.QueuesPerLink,
	}
	if err := opts.Policy.Setup(&e.ctx); err != nil {
		return err
	}
	e.run(maxCycles)
	if e.cancelled {
		return fmt.Errorf("machine: run cancelled after %d cycles: %w", e.now, context.Cause(opts.Context))
	}
	return nil
}

// Run simulates the compiled program to completion, deadlock, or the
// cycle bound under one configuration. It returns an error only for
// configuration problems; run-time deadlock is a Result, not an
// error. Run is safe for concurrent use.
func (m *Machine) Run(opts ExecOptions) (*Result, error) {
	maxCycles, tbl, flavor, flt, lm, err := m.prepare(&opts)
	if err != nil {
		return nil, err
	}
	pool := m.execs.Load()
	e := pool.Get().(*exec)
	if err := m.runExec(e, &opts, tbl, flavor, maxCycles, flt, lm); err != nil {
		e.release()
		pool.Put(e)
		return nil, err
	}
	out := new(Result)
	*out = e.result()
	e.release()
	pool.Put(e)
	return out, nil
}
