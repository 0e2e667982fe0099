package machine

import (
	"strconv"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// This file is the ready-set scheduler: the per-cycle loop that
// replaces the reference engine's full scan over every cell, queue,
// and message with event-driven wake lists. The invariant it lives
// by is *exact equivalence* — same grants, same transfers, same
// pending-list orders, same cycle counts, same deadlock reports as
// the reference loop in internal/sim — achieved by revisiting, each
// cycle, precisely the entities whose observable state an event could
// have changed since their last visit:
//
//   - cells: a cell's front op only changes when the cell issues, so
//     first-hop queue requests are re-examined only for cells whose pc
//     advanced ("dirty cells", processed in cell-id order — the same
//     relative order as the reference full scan, which skips unchanged
//     cells as no-ops);
//   - reads and interior advances visit only messages with words
//     buffered on their route (the "transport" set: written > read);
//   - sender writes and capacity-0 rendezvous visit only messages
//     whose sender is parked at W(msg) with the first-hop queue bound
//     (the "writer" set, maintained by the grant and pc-advance
//     hooks);
//   - interior queue requests re-check only messages pushed into
//     since the last collect (the "reqCheck" set);
//   - queue releases re-check only messages with a departure event
//     this cycle (the "moved" set) — a queue is releasable exactly
//     when its last word departs;
//   - pools: Grant is re-invoked only when a pool's free count or
//     pending list changed since its previous invocation ("armed
//     pools", visited in ascending pool order). Policies are pure
//     functions of (free, pending, own grant history) — see the
//     assign.Policy contract — so skipped invocations are exactly the
//     ones that could neither grant nor mutate policy state;
//   - queues: cooldown ticks touch only queues with an armed
//     extension penalty ("cooling list").
//
// Every ready set is a word-packed bitset (bitset.go) whose
// TrailingZeros64 iteration visits members in ascending id order by
// construction, matching the reference engine's message-order scans
// with no per-cycle sorting; set membership is a superset of the
// entries the reference scan could act on, so skipped entries are
// exactly its no-ops.
//
// Every phase is one ascending loop over its ready set that applies
// its effects in place. No phase inserts into the set it iterates,
// so each insertion is first seen by a later phase: requests arm
// pools for this cycle's grant phase, writes add to the transport set
// after reads and advances have scanned it, new writers land in the
// live set after this cycle's snapshot, and dirty cells, request
// checks, moved messages and released pools wait for the next
// collect, release and grant phases. The read phase drops drained
// messages from the transport set it iterates, which bitset.next
// allows.
//
// Blocked-cycle accounting is derived in closed form at the end of a
// run (per cell: cycles elapsed while unfinished minus ops issued)
// instead of a per-cycle scan; the result is bit-identical to the
// reference engine's counter.

// queueInst is one physical queue in a link's pool.
type queueInst struct {
	link topology.LinkID // real link, for reporting
	idx  int             // queue index within the link, for reporting
	slot int             // index in exec.queues, for the cooling list
	q    queue.Queue

	bound   bool
	msg     model.MessageID
	hop     int // index into the bound message's route
	cooling bool
}

// msgState tracks one message's transport progress. The per-hop
// slices are windows into the exec's flat arenas.
type msgState struct {
	queues    []*queueInst // per hop; nil until granted
	granted   []bool
	requested []bool
	departed  []int // words that have left hop i (last hop: read by receiver)
	written   int   // words pushed by the sender
	read      int   // words consumed by the receiver
}

// exec holds all mutable state of one run. Everything that does not
// escape into the Result is pooled on the Machine and reused across
// runs.
type exec struct {
	m              *Machine
	logic          CellLogic
	policy         assign.Policy
	flavor         int // 0 shared pools, 1 directional
	capacity       int
	queuesPerLink  int
	recordTimeline bool

	numPools int
	queues   []queueInst         // pool p occupies [p*Q : (p+1)*Q]
	pending  [][]model.MessageID // per pool, outstanding requests

	msgs     []msgState
	hopQ     []*queueInst // flat backing for msgState.queues
	hopFlags []bool       // flat backing for granted + requested
	hopInts  []int        // flat backing for departed

	pc         []int
	issued     []bool
	issuedList []int // cells issued this cycle, to clear cheaply
	finishedAt []int // per cell: cycle of its final issue
	remaining  int   // cells with ops left

	// The ready sets.

	// dirty holds the cells whose pc advanced since the last collect.
	dirty bitset
	// transport holds the messages with words buffered somewhere on
	// their route (written > read): the only messages reads and
	// interior advances can act on. The read phase drops drained
	// entries, so the advance phase sees the post-drop set.
	transport bitset
	// writers holds the messages whose sender is parked at W(msg)
	// with the first-hop queue bound: the only candidates for sender
	// writes and capacity-0 rendezvous. Maintained by the grant and
	// pc-advance hooks; writerSnap snapshots it each cycle so
	// mid-cycle insertions target the real set. writeReady is the
	// membership flag the write phase clears for stale entries; the
	// set itself is compacted against it at the next snapshot.
	writers    bitset
	writerSnap bitset
	writeReady []bool
	// reqSet holds the messages pushed into since the last collect:
	// the only candidates for new interior-hop queue requests.
	reqSet bitset
	// movedSet holds the messages with a departure event this cycle:
	// the only candidates for queue release.
	movedSet bitset
	// armed holds the pools to visit next grantPhase. The grant phase
	// swaps it with armedScratch so pools re-armed while granting land
	// in the following visit's set, never the one being iterated.
	armed        bitset
	armedScratch bitset

	cooling []int // queue slots with a possibly-armed cooldown

	// reuse marks a caller-owned batch exec (see Exec in batch.go):
	// buffers that normally escape into the Result — received, the
	// arena, blocked counts, queue stats, the deadlock report — are
	// retained and recycled across runs instead of freshly allocated,
	// because the batch contract says a Result is only valid until the
	// next Run on the same Exec. Pooled execs (Machine.Run) keep
	// reuse false: their Results outlive them.
	reuse        bool
	blockedBuf   []int
	qstatBuf     []QueueStat
	cellBlockBuf []CellBlock

	received [][]Word // escapes into Result; fresh per run unless reuse
	arena    []Word   // backing store for all received words; fresh per run unless reuse

	ctx assign.Context // per-run policy context; fields are shared read-only views

	// faults holds the run's lowered fault tables; nil on fault-free
	// runs, so every hot-path gate is a single pointer test. Gates
	// sit at the four operation-issue sites (reads, interior advances,
	// sender writes, rendezvous), each checked *after* every fault-free
	// readiness criterion, so the gated-op count — and therefore every
	// downstream byte — matches the reference engine's full scan.
	faults *fault.Lowered

	// lm holds the run's lowered link-timing tables; nil under unit
	// latency, so every hot-path gate is a single pointer test.
	// Occupancy state: lmNextFree[l] is the first cycle link l is free
	// again (words cross only when now ≥ lmNextFree[l]); lmTally[l]
	// counts the words that crossed l this cycle; lmDirty lists the
	// links with a non-zero tally; lmBusyMax is the largest nextFree
	// ever set, so a no-event cycle at now ≥ lmBusyMax cannot be
	// waiting out a busy window. Gates sit immediately before the
	// fault link gates at the three link-crossing sites (interior
	// advances, sender writes, rendezvous) and are pure reads during a
	// phase; nextFree is recomputed from the tallies at end of cycle
	// (lmEndCycle). A busy-link stall is timing, not degradation: it
	// does not count toward GatedOps.
	lm         *linkmodel.Lowered
	lmNextFree []int
	lmTally    []int32
	lmDirty    []int32
	lmBusyMax  int

	hasInterior bool // any route longer than one hop
	cancel      <-chan struct{}
	cancelled   bool

	res   Result
	stats Stats
	now   int
	moved bool // any event this cycle
}

// deliver appends a received word. Each message's slice is a window
// into one per-run arena, installed on first delivery (so messages
// that never deliver stay nil, as callers expect) and capped at the
// declared word count: the whole run's received output costs one
// allocation instead of one per message.
//
//sysvet:hotpath
func (e *exec) deliver(id model.MessageID, w Word) {
	if e.received[id] == nil {
		off, end := e.m.wordOff[id], e.m.wordOff[id+1]
		e.received[id] = e.arena[off:off:end]
	}
	e.received[id] = append(e.received[id], w)
}

// grow returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers clear what they need.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// init sizes the exec for one run, reusing pooled backing arrays.
func (e *exec) init(m *Machine, opts *ExecOptions, tbl *poolTable, flavor int, flt *fault.Lowered, lm *linkmodel.Lowered) {
	e.m = m
	e.logic = opts.Logic
	e.policy = opts.Policy
	e.flavor = flavor
	e.capacity = opts.Capacity
	e.queuesPerLink = opts.QueuesPerLink
	e.recordTimeline = opts.RecordTimeline
	e.faults = flt
	e.lm = lm
	e.lmBusyMax = 0
	if lm != nil {
		n := len(m.links)
		e.lmNextFree = grow(e.lmNextFree, n)
		e.lmTally = grow(e.lmTally, n)
		clear(e.lmNextFree)
		clear(e.lmTally)
		e.lmDirty = e.lmDirty[:0]
	}

	q := opts.QueuesPerLink
	e.numPools = tbl.numPools
	e.queues = grow(e.queues, e.numPools*q)
	for i := range e.queues {
		qi := &e.queues[i]
		pool := i / q
		realLink := topology.LinkID(pool)
		qi.idx = i % q
		if flavor == 1 {
			realLink = topology.LinkID(pool / 2)
			// A link's two pools are contiguous (forward 0..Q-1,
			// reverse Q..2Q-1), keeping (link, idx) unique in
			// timelines and stats.
			qi.idx = i % (2 * q)
		}
		qi.link = realLink
		qi.slot = i
		qi.bound = false
		qi.msg = 0
		qi.hop = 0
		qi.cooling = false
		qi.q.Init(opts.Capacity, opts.ExtCapacity, opts.ExtPenalty)
	}
	e.pending = grow(e.pending, e.numPools)
	for i := range e.pending {
		e.pending[i] = e.pending[i][:0]
	}

	totalHops := m.totalHops
	e.hopQ = grow(e.hopQ, totalHops)
	e.hopFlags = grow(e.hopFlags, 2*totalHops)
	e.hopInts = grow(e.hopInts, totalHops)
	clear(e.hopQ)
	clear(e.hopFlags)
	clear(e.hopInts)
	msgs := m.prog.NumMessages()
	e.msgs = grow(e.msgs, msgs)
	for id := range e.msgs {
		off, end := m.hopOff[id], m.hopOff[id+1]
		e.msgs[id] = msgState{
			queues:    e.hopQ[off:end:end],
			granted:   e.hopFlags[off:end:end],
			requested: e.hopFlags[int32(totalHops)+off : int32(totalHops)+end : int32(totalHops)+end],
			departed:  e.hopInts[off:end:end],
		}
	}

	cells := m.prog.NumCells()
	e.pc = grow(e.pc, cells)
	e.issued = grow(e.issued, cells)
	e.finishedAt = grow(e.finishedAt, cells)
	clear(e.pc)
	clear(e.issued)
	clear(e.finishedAt)
	e.issuedList = e.issuedList[:0]
	e.remaining = m.codeCells

	// Every cell and every pool starts "dirty": cycle 0 of the
	// reference engine scans them all, and so do we — once.
	e.dirty.sizeTo(cells)
	e.dirty.fill(cells)
	e.writeReady = grow(e.writeReady, msgs)
	clear(e.writeReady)
	e.transport.sizeTo(msgs)
	e.writers.sizeTo(msgs)
	e.writerSnap.sizeTo(msgs)
	e.reqSet.sizeTo(msgs)
	e.movedSet.sizeTo(msgs)
	e.armed.sizeTo(e.numPools)
	e.armed.fill(e.numPools)
	e.armedScratch.sizeTo(e.numPools)
	e.cooling = e.cooling[:0]

	e.hasInterior = m.maxRouteLen > 1
	e.cancel = nil
	e.cancelled = false
	if opts.Context != nil {
		e.cancel = opts.Context.Done()
	}

	if e.reuse {
		// Arena contents need no clearing: deliver re-installs each
		// message's window empty and only appended words are exposed.
		e.received = grow(e.received, msgs)
		clear(e.received)
		e.arena = grow(e.arena, m.totalWords)
	} else {
		e.received = make([][]Word, msgs)
		e.arena = make([]Word, m.totalWords)
	}
	e.res = Result{}
	e.stats = Stats{}
	e.now = 0
	e.moved = false
}

// release clears every reference that escaped into the returned
// Result (and the per-run inputs) before the exec returns to the
// machine's pool.
func (e *exec) release() {
	e.m = nil
	e.logic = nil
	e.policy = nil
	e.received = nil
	e.arena = nil
	e.cancel = nil
	e.faults = nil
	e.lm = nil
	e.ctx = assign.Context{}
	e.res = Result{}
	e.stats = Stats{}
}

// poolOf returns the pool serving hop i of message id under the
// run's regime.
//
//sysvet:hotpath
func (e *exec) poolOf(id model.MessageID, hop int) int {
	return int(e.m.hops[e.m.hopOff[id]+int32(hop)].pool[e.flavor])
}

// hopLink returns the physical link of hop i of message id.
//
//sysvet:hotpath
func (e *exec) hopLink(id model.MessageID, hop int) topology.LinkID {
	return e.m.hops[e.m.hopOff[id]+int32(hop)].link
}

// linkFree reports whether link lk can carry words this cycle, i.e.
// it is not inside a busy window from an earlier cycle's traffic.
// Callers gate with e.lm != nil so the unit-latency path never loads
// the table.
//
//sysvet:hotpath
func (e *exec) linkFree(lk topology.LinkID) bool {
	return e.now >= e.lmNextFree[lk]
}

// noteLinkHit tallies one word crossing link lk this cycle. Callers
// gate with e.lm != nil.
//
//sysvet:hotpath
func (e *exec) noteLinkHit(lk topology.LinkID) {
	if e.lmTally[lk] == 0 {
		e.lmDirty = append(e.lmDirty, int32(lk))
	}
	e.lmTally[lk]++
}

// lmEndCycle closes the cycle's link occupancy: every link with
// traffic this cycle gets a busy window from the model
// (nextFree = now + Busy(link, tally)), and the tallies reset.
// It runs after the release phase — the reference engine runs the
// identical fold at the identical point.
//
//sysvet:hotpath
func (e *exec) lmEndCycle() {
	for _, l := range e.lmDirty {
		nf := e.now + e.lm.Busy(topology.LinkID(l), e.lmTally[l])
		e.lmNextFree[l] = nf
		if nf > e.lmBusyMax {
			e.lmBusyMax = nf
		}
		e.lmTally[l] = 0
	}
	e.lmDirty = e.lmDirty[:0]
}

// pool returns the queue instances of pool p.
//
//sysvet:hotpath
func (e *exec) pool(p int) []queueInst {
	return e.queues[p*e.queuesPerLink : (p+1)*e.queuesPerLink]
}

// hopOn returns the route hop of msg served by pool, or -1.
//
//sysvet:hotpath
func (e *exec) hopOn(pool int, msg model.MessageID) int {
	hops := e.m.msgHops(msg)
	for i := range hops {
		if int(hops[i].pool[e.flavor]) == pool {
			return i
		}
	}
	return -1
}

// request queues msg for pool and arms the pool for this cycle's
// grant phase.
//
//sysvet:hotpath
func (e *exec) request(pool int, msg model.MessageID) {
	e.pending[pool] = append(e.pending[pool], msg)
	e.armed.add(pool)
}

// noteWriter records that id's sender is parked at W(id) with the
// first-hop queue bound. Called from the grant hook and the
// pc-advance hook, which together cover both orders the two
// conditions can become true in. A grant inserts before this cycle's
// writer snapshot, so the sender may write in the same cycle, exactly
// as the reference engine's in-line insertion allows; a pc advance
// inserts after it, so the entry waits for the next cycle, as the
// reference engine's issued-flag check makes it.
//
//sysvet:hotpath
func (e *exec) noteWriter(id model.MessageID) {
	if !e.writeReady[id] {
		e.writeReady[id] = true
		e.writers.add(int(id))
	}
}

// noteReqCheck records a push into one of id's queues: its next hop
// may now be requestable. On machines where every route is a single
// hop there are no interior hops to request, so the set stays empty
// and the interior collect is skipped outright.
//
//sysvet:hotpath
func (e *exec) noteReqCheck(id model.MessageID) {
	if e.hasInterior {
		e.reqSet.add(int(id))
	}
}

// noteEvent records per-cycle progress: the cycle saw an event (so the
// run is not deadlocked) and words hop traversals.
//
//sysvet:hotpath
func (e *exec) noteEvent(words int) {
	e.moved = true
	e.stats.WordsMoved += words
}

// noteCooling registers a queue whose Pop may have armed an
// extension-access cooldown.
//
//sysvet:hotpath
func (e *exec) noteCooling(qi *queueInst) {
	if !qi.cooling && qi.q.Cooling() {
		qi.cooling = true
		e.cooling = append(e.cooling, qi.slot)
	}
}

// advancePC issues cell c's front op: one op per cell per cycle. When
// the new front op is a write on an already-granted message, the
// message joins the writer set directly; otherwise the next collect's
// dirty-cell pass handles any first-hop queue request.
//
//sysvet:hotpath
func (e *exec) advancePC(c int) {
	e.pc[c]++
	e.issued[c] = true
	e.issuedList = append(e.issuedList, c)
	if e.pc[c] >= len(e.m.code(c)) {
		e.finishedAt[c] = e.now
		e.remaining--
		return
	}
	e.dirty.add(c)
	if op := e.m.code(c)[e.pc[c]]; op.Kind == model.Write {
		ms := &e.msgs[op.Msg]
		if len(ms.queues) > 0 && ms.queues[0] != nil {
			e.noteWriter(op.Msg)
		}
	}
}

// run executes the scheduler loop. The cycle structure — tick,
// collect, grant, transfer, release, deadlock check — is the
// reference engine's, with each phase visiting only its ready set.
func (e *exec) run(maxCycles int) {
	for e.now = 0; e.now < maxCycles; e.now++ {
		if e.remaining == 0 {
			break
		}
		if e.cancel != nil {
			select {
			case <-e.cancel:
				e.cancelled = true
				return
			default:
			}
		}
		e.moved = false
		e.tickCooling()
		e.collectRequests()
		e.grantPhase()
		e.cellAndTransferPhase()
		e.releasePhase()
		if e.lm != nil {
			e.lmEndCycle()
		}
		if !e.moved && !e.anyCooling() && (e.faults == nil || e.faults.AllPeriodicOpen(e.now)) &&
			(e.lm == nil || e.now >= e.lmBusyMax) {
			// A no-event cycle proves deadlock only if every periodic
			// fault gate was open: a closed gate may be the sole reason
			// nothing moved, and the system can progress once it
			// reopens. Dead cells and severed links never reopen, so
			// they are rightly excluded — work stalled on them is a
			// genuine, deterministic deadlock. Likewise a link still
			// inside a busy window (now < lmBusyMax) may be the sole
			// stall cause; every window is finite, so waiting it out
			// keeps deadlock detection exact.
			e.res.Deadlocked = true
			e.res.Blocked = e.blockedReport()
			break
		}
	}
}

// tickCooling advances extension-penalty cooldowns, compacting
// entries whose cooldown has expired.
//
//sysvet:hotpath
func (e *exec) tickCooling() {
	w := 0
	for _, slot := range e.cooling {
		qi := &e.queues[slot]
		if qi.q.Cooling() {
			qi.q.Tick()
			e.cooling[w] = slot
			w++
		} else {
			qi.cooling = false
		}
	}
	e.cooling = e.cooling[:w]
}

// anyCooling reports whether some queue is waiting out an
// extension-access penalty; such cycles are latency, not deadlock.
//
//sysvet:hotpath
func (e *exec) anyCooling() bool {
	for _, slot := range e.cooling {
		if e.queues[slot].q.Cooling() {
			return true
		}
	}
	return false
}

// collectRequests registers queue requests: a message asks for its
// first hop when its sender reaches a W on it, and for hop i>0 when
// its header is buffered at the cell feeding that hop (§5). First-hop
// checks run over dirty cells in cell order, then interior checks
// over live messages in message order — the same relative append
// order the reference full scan produces.
//
//sysvet:hotpath
func (e *exec) collectRequests() {
	for c := e.dirty.next(0); c >= 0; c = e.dirty.next(c + 1) {
		code := e.m.code(c)
		if e.pc[c] >= len(code) {
			continue
		}
		op := code[e.pc[c]]
		if op.Kind != model.Write {
			continue
		}
		ms := &e.msgs[op.Msg]
		if len(ms.queues) > 0 && !ms.requested[0] {
			ms.requested[0] = true
			e.request(e.poolOf(op.Msg, 0), op.Msg)
		}
	}
	e.dirty.clearAll()

	// Only messages pushed into since the last collect can have a
	// newly non-empty queue; requested flags make re-checks of older
	// non-empty queues no-ops, so this subset in ascending order
	// appends to the pending lists exactly as the full message scan
	// did.
	for id := e.reqSet.next(0); id >= 0; id = e.reqSet.next(id + 1) {
		ms := &e.msgs[id]
		for hop := 1; hop < len(ms.queues); hop++ {
			if ms.requested[hop] || ms.queues[hop-1] == nil {
				continue
			}
			if ms.queues[hop-1].q.Len() > 0 {
				ms.requested[hop] = true
				e.request(e.poolOf(model.MessageID(id), hop), model.MessageID(id))
			}
		}
	}
	e.reqSet.clearAll()
}

// grantPhase invokes the policy for every armed pool in ascending
// pool order. A pool re-arms whenever its free count or pending list
// changes, so every invocation the reference engine's per-cycle sweep
// would have made that could matter is made here too. Policy
// instances are stateful and their call order is part of the
// observable behavior.
//
//sysvet:hotpath
func (e *exec) grantPhase() {
	// Swap the armed set with the (empty) scratch set: pools re-armed
	// while granting or by a later phase land in the fresh set and are visited next grantPhase, never
	// the one being iterated.
	e.armed, e.armedScratch = e.armedScratch, e.armed
	for pid := e.armedScratch.next(0); pid >= 0; pid = e.armedScratch.next(pid + 1) {
		pool := e.pool(pid)
		free := 0
		for i := range pool {
			if !pool[i].bound {
				free++
			}
		}
		grants := e.policy.Grant(e.now, topology.LinkID(pid), free, e.pending[pid])
		for _, msg := range grants {
			if free == 0 {
				break // policy over-granted; ignore the excess
			}
			hop := e.hopOn(pid, msg)
			if hop < 0 || e.msgs[msg].granted[hop] {
				continue
			}
			var qi *queueInst
			for i := range pool {
				if !pool[i].bound {
					qi = &pool[i]
					break
				}
			}
			qi.bound = true
			qi.msg = msg
			qi.hop = hop
			ms := &e.msgs[msg]
			ms.granted[hop] = true
			ms.queues[hop] = qi
			free--
			e.moved = true
			e.stats.Grants++
			e.removePending(pid, msg)
			e.armed.add(pid)
			if hop == 0 {
				// The sender may already be parked at W(msg) waiting
				// for exactly this grant.
				c := int(e.m.sender[msg])
				code := e.m.code(c)
				if e.pc[c] < len(code) {
					if op := code[e.pc[c]]; op.Kind == model.Write && op.Msg == msg {
						e.noteWriter(msg)
					}
				}
			}
			if e.recordTimeline {
				// Record the real link (qi.link), not the pool id:
				// under DirectionalPools pool ids are synthetic and
				// release events already use the real link.
				e.res.Timeline = append(e.res.Timeline, BindEvent{Cycle: e.now, Link: qi.link, QueueIdx: qi.idx, Msg: msg, Bound: true})
			}
		}
	}
	e.armedScratch.clearAll()
}

//sysvet:hotpath
func (e *exec) removePending(pool int, msg model.MessageID) {
	lst := e.pending[pool]
	for i, m := range lst {
		if m == msg {
			e.pending[pool] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// cellAndTransferPhase performs, in order: receiver reads, interior
// hop advances (swept from the receiver side so a pipeline advances
// one hop everywhere in a single cycle), rendezvous transfers for
// capacity-0 latches, and sender writes. Each cell issues at most one
// operation per cycle. All four sub-phases iterate live messages in
// ascending id order; a cell's front op names exactly one message, so
// this visits the same actions as the reference engine's cell-order
// scans.
//
//sysvet:hotpath
func (e *exec) cellAndTransferPhase() {
	for _, c := range e.issuedList {
		e.issued[c] = false
	}
	e.issuedList = e.issuedList[:0]
	// Snapshot (and compact) the writer set up front: entries added
	// mid-cycle belong to cells that have already issued, so deferring
	// them to the next cycle is exactly what the issued-flag check in
	// the full-scan engine did. Entries whose writeReady flag the
	// write phase cleared last cycle are dropped here.
	for id := e.writers.next(0); id >= 0; id = e.writers.next(id + 1) {
		if !e.writeReady[id] {
			e.writers.drop(id)
		}
	}
	e.writerSnap.copyFrom(&e.writers)

	e.readPhase()
	// Single-hop machines have no interior queues to advance.
	if e.hasInterior {
		e.advancePhase()
	}
	if e.capacity == 0 {
		e.rendezvous()
	}
	e.writePhase()
}

// readPhase serves receiver reads from buffered last-hop queues. Only
// messages with buffered words can serve a read; fully drained
// entries leave the transport set here, before the advance phase
// iterates it.
//
//sysvet:hotpath
func (e *exec) readPhase() {
	for i := e.transport.next(0); i >= 0; i = e.transport.next(i + 1) {
		id := model.MessageID(i)
		ms := &e.msgs[id]
		if ms.written == ms.read {
			e.transport.drop(i)
			continue
		}
		last := len(ms.queues) - 1
		if last < 0 || ms.queues[last] == nil {
			continue
		}
		cell := e.m.receiver[id]
		c := int(cell)
		code := e.m.code(c)
		if e.issued[c] || e.pc[c] >= len(code) {
			continue
		}
		op := code[e.pc[c]]
		if op.Kind != model.Read || op.Msg != id {
			continue
		}
		qi := ms.queues[last]
		if !qi.q.FrontReady() {
			continue
		}
		if e.faults != nil && !e.faults.CellOpen(cell, e.now) {
			e.stats.GatedOps++
			continue
		}
		word := qi.q.Pop()
		e.noteCooling(qi)
		e.logic.OnRead(cell, id, ms.read, word)
		e.deliver(id, word)
		ms.read++
		ms.departed[last]++
		e.movedSet.add(i)
		e.advancePC(c)
		e.noteEvent(1)
	}
}

// advancePhase moves words between interior queues, last hop toward
// the receiver first.
//
//sysvet:hotpath
func (e *exec) advancePhase() {
	for i := e.transport.next(0); i >= 0; i = e.transport.next(i + 1) {
		id := model.MessageID(i)
		ms := &e.msgs[id]
		for hop := len(ms.queues) - 2; hop >= 0; hop-- {
			src, dst := ms.queues[hop], ms.queues[hop+1]
			if src == nil || dst == nil {
				continue
			}
			if src.q.FrontReady() && dst.q.CanAccept() {
				if e.lm != nil && !e.linkFree(e.hopLink(id, hop+1)) {
					// Busy-link stalls are timing, not degradation: no
					// GatedOps.
					continue
				}
				if e.faults != nil && !e.faults.LinkOpen(e.hopLink(id, hop+1), e.now) {
					e.stats.GatedOps++
					continue
				}
				dst.q.Push(src.q.Pop())
				if e.lm != nil {
					e.noteLinkHit(e.hopLink(id, hop+1))
				}
				e.noteCooling(src)
				ms.departed[hop]++
				e.movedSet.add(i)
				e.reqSet.add(i)
				e.noteEvent(1)
			}
		}
	}
}

// writePhase pushes sender words into first-hop queues for the
// writer-snapshot entries.
//
//sysvet:hotpath
func (e *exec) writePhase() {
	for i := e.writerSnap.next(0); i >= 0; i = e.writerSnap.next(i + 1) {
		id := model.MessageID(i)
		if !e.writeReady[id] {
			continue
		}
		ms := &e.msgs[id]
		if len(ms.queues) == 0 || ms.queues[0] == nil {
			e.writeReady[id] = false
			continue
		}
		cell := e.m.sender[id]
		c := int(cell)
		code := e.m.code(c)
		if e.pc[c] >= len(code) {
			e.writeReady[id] = false
			continue
		}
		op := code[e.pc[c]]
		if op.Kind != model.Write || op.Msg != id {
			e.writeReady[id] = false
			continue
		}
		if e.issued[c] {
			continue
		}
		qi := ms.queues[0]
		if !qi.q.CanAccept() {
			continue
		}
		if e.lm != nil && !e.linkFree(qi.link) {
			continue
		}
		if e.faults != nil && (!e.faults.CellOpen(cell, e.now) || !e.faults.LinkOpen(qi.link, e.now)) {
			e.stats.GatedOps++
			continue
		}
		qi.q.Push(e.logic.Produce(cell, id, ms.written))
		if e.lm != nil {
			e.noteLinkHit(qi.link)
		}
		ms.written++
		e.transport.add(i)
		e.noteReqCheck(id)
		e.advancePC(c)
		e.noteEvent(0)
	}
}

// rendezvous matches W(m) senders with R(m) receivers over bound
// capacity-0 latches: the word passes through without ever being
// buffered, the paper's "queues are just latches" regime.
//
//sysvet:hotpath
func (e *exec) rendezvous() {
	// A rendezvous needs the sender parked at W(id) over a bound
	// latch — precisely the writer set (capacity 0 admits only
	// single-hop routes, so every entry here is a latch candidate).
	for i := e.writerSnap.next(0); i >= 0; i = e.writerSnap.next(i + 1) {
		id := model.MessageID(i)
		if !e.writeReady[id] {
			continue
		}
		ms := &e.msgs[id]
		if len(ms.queues) != 1 || ms.queues[0] == nil {
			continue
		}
		sc, rc := int(e.m.sender[id]), int(e.m.receiver[id])
		if e.issued[sc] || e.issued[rc] {
			continue
		}
		sCode, rCode := e.m.code(sc), e.m.code(rc)
		if e.pc[sc] >= len(sCode) || e.pc[rc] >= len(rCode) {
			continue
		}
		sOp, rOp := sCode[e.pc[sc]], rCode[e.pc[rc]]
		if sOp.Kind != model.Write || sOp.Msg != id {
			continue
		}
		if rOp.Kind != model.Read || rOp.Msg != id {
			continue
		}
		if e.lm != nil && !e.linkFree(ms.queues[0].link) {
			continue
		}
		if e.faults != nil && (!e.faults.CellOpen(e.m.sender[id], e.now) ||
			!e.faults.CellOpen(e.m.receiver[id], e.now) ||
			!e.faults.LinkOpen(ms.queues[0].link, e.now)) {
			e.stats.GatedOps++
			continue
		}
		w := e.logic.Produce(e.m.sender[id], id, ms.written)
		e.logic.OnRead(e.m.receiver[id], id, ms.read, w)
		e.deliver(id, w)
		if e.lm != nil {
			e.noteLinkHit(ms.queues[0].link)
		}
		ms.written++
		ms.read++
		ms.departed[0]++
		e.movedSet.add(i)
		e.advancePC(sc)
		e.advancePC(rc)
		e.noteEvent(1)
	}
}

// releasePhase frees queues whose message has fully passed (§2.3: a
// queue may be reassigned only after the current message's last word
// has passed it) and retires messages with nothing left bound. A
// queue becomes releasable exactly on the cycle its message's last
// word departs it (the queue is empty at that same instant), so the
// messages with departure events this cycle are the only release
// candidates. Release-side timeline events follow ascending message
// order.
//
//sysvet:hotpath
func (e *exec) releasePhase() {
	for i := e.movedSet.next(0); i >= 0; i = e.movedSet.next(i + 1) {
		id := model.MessageID(i)
		ms := &e.msgs[id]
		words := e.m.words[id]
		for hop := range ms.queues {
			if !ms.granted[hop] || ms.queues[hop] == nil {
				continue
			}
			if ms.departed[hop] == words && ms.queues[hop].q.Empty() {
				qi := ms.queues[hop]
				qi.bound = false
				qi.q.Reset()
				ms.queues[hop] = nil // keep granted=true: the message had its turn
				e.stats.Releases++
				e.armed.add(e.poolOf(id, hop))
				if e.recordTimeline {
					e.res.Timeline = append(e.res.Timeline, BindEvent{Cycle: e.now, Link: qi.link, QueueIdx: qi.idx, Msg: id, Bound: false})
				}
			}
		}
	}
	e.movedSet.clearAll()
}

// result assembles the run's Result. Blocked-cycle accounting is the
// closed form of the reference engine's per-cycle counter: a cell is
// blocked in every cycle it existed unfinished and did not issue.
func (e *exec) result() Result {
	e.res.Completed = e.remaining == 0
	if !e.res.Completed && !e.res.Deadlocked {
		e.res.TimedOut = true
	}
	e.res.Cycles = e.now
	e.res.Received = e.received
	if e.faults != nil {
		// The descriptions are computed once at Lower and shared; the
		// content equality is what the cross-engine suites compare.
		e.res.Faults = e.faults.Descriptions()
	}

	// Cycles in which the reference engine's accounting ran: every
	// executed cycle, plus the deadlock cycle itself (its accounting
	// runs before the stall is declared).
	accounted := e.now
	if e.res.Deadlocked {
		accounted++
	}
	cells := e.m.prog.NumCells()
	var blocked []int
	if e.reuse {
		e.blockedBuf = grow(e.blockedBuf, cells)
		blocked = e.blockedBuf
		clear(blocked)
	} else {
		blocked = make([]int, cells)
	}
	for c := 0; c < cells; c++ {
		n := len(e.m.code(c))
		if n == 0 {
			continue
		}
		if e.pc[c] >= n {
			// Unfinished through its final-issue cycle inclusive,
			// issuing in n of those cycles (the last of which is the
			// final-issue cycle itself, never counted as blocked).
			blocked[c] = e.finishedAt[c] + 1 - n
		} else {
			blocked[c] = accounted - e.pc[c]
		}
	}
	e.stats.BlockedCycles = blocked
	e.stats.Cycles = e.now
	var qs []QueueStat
	if e.reuse && e.qstatBuf != nil {
		qs = e.qstatBuf[:0]
	} else {
		qs = make([]QueueStat, 0, len(e.queues))
	}
	for i := range e.queues {
		qi := &e.queues[i]
		// qi.link is the real link, not the pool id: under
		// DirectionalPools a link's two pools report under the same
		// physical link, matching the timeline's attribution.
		qs = append(qs, QueueStat{Link: qi.link, QueueIdx: qi.idx, Stats: qi.q.Stats()})
	}
	if e.reuse {
		e.qstatBuf = qs
	}
	e.stats.Queues = qs
	e.res.Stats = e.stats
	return e.res
}

func (e *exec) blockedReport() []CellBlock {
	var out []CellBlock
	if e.reuse {
		out = e.cellBlockBuf[:0]
	}
	for c := 0; c < e.m.prog.NumCells(); c++ {
		cell := model.CellID(c)
		code := e.m.code(c)
		if e.pc[c] >= len(code) {
			continue
		}
		op := code[e.pc[c]]
		out = append(out, CellBlock{Cell: cell, Op: op, OpIdx: e.pc[c], Reason: e.blockReason(op)})
	}
	if e.reuse {
		e.cellBlockBuf = out
	}
	return out
}

// blockReason renders one cell's stall cause. Plain concatenation
// rather than fmt: deadlocked sweep points hit this for every stuck
// cell, and Sprintf was a visible slice of their profile. The bytes
// are unchanged.
func (e *exec) blockReason(op model.Op) string {
	ms := &e.msgs[op.Msg]
	name := e.m.prog.Message(op.Msg).Name
	if op.Kind == model.Write {
		if len(ms.queues) > 0 && !ms.granted[0] {
			return "no queue bound for " + name + " on its first link"
		}
		return "queue for " + name + " is full (capacity " + strconv.Itoa(e.capacity) + ") and the downstream never drains"
	}
	last := len(ms.queues) - 1
	if last >= 0 && !ms.granted[last] {
		return "no queue bound for " + name + " on its last link"
	}
	return "no word of " + name + " has arrived"
}
