// Package sim executes a systolic program cycle by cycle over a
// topology with a fixed number of bounded queues per link, under a
// pluggable queue-assignment policy. It is the run-time substrate that
// stands in for the Warp/iWarp hardware of the paper: the same
// abstraction (cells issuing one R/W per cycle, words flowing hop by
// hop through assigned queues), made deterministic and observable.
//
// The simulator detects run-time deadlock exactly: the system is
// deterministic and monotone, so a cycle in which no operation issues,
// no word moves, and no queue is granted — while work remains — can
// never un-stall.
//
// Since the compile-once refactor the execution core lives in
// internal/machine: Run here is a thin compatibility adapter that
// compiles the configuration into a machine and runs it once. Callers
// that run the same analyzed configuration many times (core.Execute,
// the sweep engine, the differential oracle) go through
// core.Analysis.Machine instead, which compiles once and reuses the
// machine for the whole grid. The original full-scan engine is kept
// in reference.go as the differential oracle for the equivalence
// suite.
package sim

import (
	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// Word re-exports the queue word type.
type Word = queue.Word

// ConfigError is a typed rejection of an invalid Config: the named
// field cannot be simulated. Callers assembling configurations
// mechanically (core.Execute normally pre-validates; direct Simulate
// users may not) detect it with errors.As.
type ConfigError = machine.ConfigError

// CellLogic supplies word values so workloads can verify end-to-end
// arithmetic; see machine.CellLogic.
type CellLogic = machine.CellLogic

// SyntheticLogic is the default CellLogic; see machine.SyntheticLogic.
type SyntheticLogic = machine.SyntheticLogic

// BindEvent is one timeline entry: a queue bound to or released from a
// message.
type BindEvent = machine.BindEvent

// CellBlock describes why a cell was stuck when a deadlock was
// detected.
type CellBlock = machine.CellBlock

// QueueStat pairs a queue's identity with its counters.
type QueueStat = machine.QueueStat

// Stats aggregates run counters.
type Stats = machine.Stats

// Result reports a run's outcome.
type Result = machine.Result

// DescribeBlocked renders a deadlock report, one line per stuck cell.
func DescribeBlocked(p *model.Program, blocked []CellBlock) string {
	return machine.DescribeBlocked(p, blocked)
}

// Config parameterizes a run.
type Config struct {
	// Topology connects the program's cells. Required.
	Topology topology.Topology
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
	// traffic direction, instead of the paper's default of one shared
	// pool whose queues flip direction on reassignment (§2.3 "the
	// direction of the queue can be reset"). With directional pools a
	// link effectively offers QueuesPerLink queues per direction.
	DirectionalPools bool
	// Routes, when non-nil, supplies precomputed routes (indexed by
	// message id, as returned by topology.Routes for this program and
	// topology). Must match Topology.
	Routes [][]topology.Hop
	// Policy decides queue bindings. Required.
	Policy assign.Policy
	// Labels (dense, per message) are passed to the policy; required
	// by Compatible and LabelDescending, optional otherwise.
	Labels []int
	// Logic supplies word values; nil means SyntheticLogic.
	Logic CellLogic
	// MaxCycles bounds the run; 0 means a generous default derived
	// from program size.
	MaxCycles int
	// RecordTimeline captures bind/release events for rendering
	// (Fig 7's lower half).
	RecordTimeline bool
	// Faults degrades the array for this run (slowed/dead cells,
	// throttled/severed links); nil runs the perfect array. See
	// internal/fault and machine.ExecOptions.Faults.
	Faults *fault.Plan
	// LinkModel retimes the interconnect for this run (fixed per-link
	// latency/bandwidth or congestion-sensitive backpressure); nil or
	// a unit plan keeps unit-latency links. See internal/linkmodel and
	// machine.ExecOptions.LinkModel.
	LinkModel *linkmodel.Plan
}

// Run simulates the program to completion, deadlock, or the cycle
// bound. It returns an error only for configuration problems; run-time
// deadlock is a Result, not an error.
//
// Run compiles a fresh machine per call; it is the right entry point
// for one-off simulations with an ad-hoc policy instance. Grid runs
// over one analyzed configuration should go through core.Execute,
// which reuses a single compiled machine.
func Run(p *model.Program, cfg Config) (*Result, error) {
	if p == nil {
		return nil, &ConfigError{Field: "Program", Reason: "nil program"}
	}
	if cfg.Topology == nil {
		return nil, &ConfigError{Field: "Topology", Reason: "nil topology"}
	}
	if cfg.Policy == nil {
		return nil, &ConfigError{Field: "Policy", Reason: "nil policy"}
	}
	m, err := machine.Compile(p, cfg.Topology, cfg.Routes, cfg.Labels)
	if err != nil {
		return nil, err
	}
	return m.Run(machine.ExecOptions{
		Policy:           cfg.Policy,
		QueuesPerLink:    cfg.QueuesPerLink,
		Capacity:         cfg.Capacity,
		ExtCapacity:      cfg.ExtCapacity,
		ExtPenalty:       cfg.ExtPenalty,
		DirectionalPools: cfg.DirectionalPools,
		Logic:            cfg.Logic,
		MaxCycles:        cfg.MaxCycles,
		RecordTimeline:   cfg.RecordTimeline,
		Faults:           cfg.Faults,
		LinkModel:        cfg.LinkModel,
	})
}

// Compile lowers a (program, topology) pair into a reusable machine;
// see machine.Compile. It is re-exported so direct sim users can opt
// into compile-once reuse without importing the machine package.
func Compile(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) (*machine.Machine, error) {
	return machine.Compile(p, t, routes, labels)
}
