package server

// Wire format of the /v1/* endpoints. Field names are the contract
// documented in docs/API.md; the doc-conformance test decodes the
// doc's JSON examples into these structs with unknown fields
// disallowed, so doc and code cannot drift apart silently.

// AnalyzeSpec selects compile-time analysis options. It is embedded in
// every request that parses a program: the analysis result (labels,
// queue bounds, the compiled machine) depends on it, so it is part of
// the cache key.
type AnalyzeSpec struct {
	// Lookahead classifies and labels with the §8 lookahead variant.
	Lookahead bool `json:"lookahead,omitempty"`
	// Capacity is the per-queue word capacity rule R2 assumes when
	// Lookahead is set.
	Capacity int `json:"capacity,omitempty"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Program is DSL source text (see docs/DSL.md).
	Program string      `json:"program"`
	Analyze AnalyzeSpec `json:"analyze,omitempty"`
}

// LabelInfo is one message's §6 label in an AnalyzeResponse.
type LabelInfo struct {
	Message string `json:"message"`
	Label   string `json:"label"` // exact rational, e.g. "3/2"
	Rank    int    `json:"rank"`  // dense 1-based integer rank
}

// AnalyzeResponse is the body returned by POST /v1/analyze.
type AnalyzeResponse struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"` // canonical content hash of (program, topology)
	Cached   bool   `json:"cached"`   // true when the compiled scenario was already resident
	// DeadlockFree is the classification under the requested options;
	// Strict is the no-lookahead classification.
	DeadlockFree     bool        `json:"deadlockFree"`
	Strict           bool        `json:"strict"`
	MinQueuesDynamic int         `json:"minQueuesDynamic"`
	MinQueuesStatic  int         `json:"minQueuesStatic"`
	Labels           []LabelInfo `json:"labels,omitempty"`
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Program string      `json:"program"`
	Analyze AnalyzeSpec `json:"analyze,omitempty"`
	// Policy is compatible|static|fcfs|lifo|random|adversarial
	// (default compatible).
	Policy string `json:"policy,omitempty"`
	// Queues per link; 0 means the analysis minimum for the policy.
	Queues int `json:"queues,omitempty"`
	// Capacity per queue in words; 0 means 1.
	Capacity int `json:"capacity,omitempty"`
	// Seed feeds randomized policies.
	Seed int64 `json:"seed,omitempty"`
	// MaxCycles bounds the simulation; 0 derives a bound from program
	// size.
	MaxCycles int `json:"maxCycles,omitempty"`
	// Force runs even when Theorem 1's queue requirement is unmet.
	Force bool `json:"force,omitempty"`
	// Workers is accepted for compatibility; no effect. Negative is
	// still refused with 400.
	Workers int `json:"workers,omitempty"`
	// Faults degrades the array for this run, in the fault-spec
	// grammar the CLI's -fault flag shares, e.g.
	// "cell:1:slow=2,link:0:sever@9". Empty runs the perfect array.
	// Faults are per-run, not part of the cached analysis.
	Faults string `json:"faults,omitempty"`
	// LinkModel retimes the interconnect for this run, in the
	// link-model spec grammar the CLI's -link-model flag shares, e.g.
	// "fixed,delay=3" or "congestion,delay=2,threshold=2,max=4". Empty
	// keeps unit-latency links. A malformed spec is refused with 400.
	// Like faults, link models are per-run, not part of the cached
	// analysis.
	LinkModel string `json:"linkModel,omitempty"`
}

// RunResponse is the body returned by POST /v1/run.
type RunResponse struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Cached   bool   `json:"cached"`
	// Outcome is "completed", "deadlocked" or "timed-out".
	Outcome    string `json:"outcome"`
	Cycles     int    `json:"cycles"`
	QueuesUsed int    `json:"queuesUsed"`
	MinQueues  int    `json:"minQueues"`
	WordsMoved int    `json:"wordsMoved"`
	// Blocked describes stuck cells when Outcome is "deadlocked", one
	// line per cell.
	Blocked []string `json:"blocked,omitempty"`
	// Faults lists the run's active faults in canonical spec form;
	// GatedOps counts operations delayed by a fault gate. Both are
	// omitted for fault-free runs.
	Faults   []string `json:"faults,omitempty"`
	GatedOps int      `json:"gatedOps,omitempty"`
	// LinkModel echoes the run's link-timing model in canonical spec
	// form; omitted for unit-latency runs.
	LinkModel string `json:"linkModel,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep. Empty axes take the
// sweep engine's defaults.
type SweepRequest struct {
	Program    string   `json:"program"`
	Policies   []string `json:"policies,omitempty"`
	Queues     []int    `json:"queues,omitempty"`
	Capacities []int    `json:"capacities,omitempty"`
	Lookaheads []int    `json:"lookaheads,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	// Workers bounds the request's own fan-out; the server-wide
	// -max-concurrency limiter applies on top. Negative is refused
	// with 400 (0 = one per CPU), matching the run endpoint.
	Workers int `json:"workers,omitempty"`
	// RunWorkers is accepted for compatibility; no effect. Negative
	// is still refused with 400.
	RunWorkers int `json:"run_workers,omitempty"`
	MaxCycles  int `json:"maxCycles,omitempty"`
	// Faults degrades every grid point with one fault plan, in the
	// same spec grammar as the run endpoint. A plan that does not fit
	// the program is refused with 400 up front.
	Faults string `json:"faults,omitempty"`
	// LinkModels is the link-timing axis: each entry is a link-model
	// spec ("" = unit-latency links), and the grid multiplies by the
	// axis exactly like queues or capacities. Empty sweeps unit links
	// only. A malformed spec refuses the sweep with 400.
	LinkModels []string `json:"linkModels,omitempty"`
}

// SweepOutcome is one grid point of a SweepResponse.
type SweepOutcome struct {
	Case      string `json:"case"`
	Policy    string `json:"policy"`
	Queues    int    `json:"queues"`
	Capacity  int    `json:"capacity"`
	Lookahead int    `json:"lookahead"`
	// LinkModel is the grid point's link-timing spec; omitted for
	// unit-latency points.
	LinkModel string `json:"linkModel,omitempty"`
	// Result is "completed", "deadlocked", "timed-out", "rejected" or
	// "error".
	Result string `json:"result"`
	Cycles int    `json:"cycles"`
	Error  string `json:"error,omitempty"`
}

// SweepResponse is the body returned by POST /v1/sweep.
type SweepResponse struct {
	ID string `json:"id"`
	// Scenario is the canonical content hash of (program, topology);
	// Cached is true when every per-lookahead analysis the grid needed
	// was already resident in the compiled-scenario cache.
	Scenario string         `json:"scenario"`
	Cached   bool           `json:"cached"`
	Outcomes []SweepOutcome `json:"outcomes"`
	// Table is the engine's rendered fixed-width report.
	Table string `json:"table"`
}

// SweepStreamSummary is the terminal NDJSON row of POST
// /v1/sweep?stream=1, after one SweepOutcome row per grid point. Its
// ID retrieves the buffered-form document via GET /v1/results/{id}.
type SweepStreamSummary struct {
	ID string `json:"id"`
	// Done distinguishes the summary row from outcome rows.
	Done bool `json:"done"`
	// Rows is the number of outcome rows that preceded this one.
	Rows     int    `json:"rows"`
	Scenario string `json:"scenario"`
	Cached   bool   `json:"cached"`
	Table    string `json:"table"`
}

// StatsResponse is the body returned by GET /v1/stats.
type StatsResponse struct {
	// CacheHits counts requests served from the compiled-scenario
	// cache (including waits on an in-flight compile); CacheMisses
	// counts compiles triggered; CacheEvictions counts LRU evictions.
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	CacheEvictions int64 `json:"cacheEvictions"`
	CacheEntries   int   `json:"cacheEntries"`
	// InFlightRuns is the number of simulations executing right now;
	// MaxConcurrency is the limiter bound they share.
	InFlightRuns   int64 `json:"inFlightRuns"`
	MaxConcurrency int   `json:"maxConcurrency"`
	// ShedRequests counts requests refused with 429 because the
	// bounded wait pool was full; QueueDepth is the number of requests
	// waiting for a run slot right now; QueueWait is the pool's bound.
	ShedRequests int64 `json:"shedRequests"`
	QueueDepth   int64 `json:"queueDepth"`
	QueueWait    int   `json:"queueWait"`
	// Tenants is the number of configured API keys (0 = anonymous
	// mode); TenantRejects counts per-tenant quota and rate-limit
	// refusals; AuthFailures counts missing or unknown API keys.
	Tenants       int   `json:"tenants"`
	TenantRejects int64 `json:"tenantRejects"`
	AuthFailures  int64 `json:"authFailures"`
	// Results is the number of retained result documents; Requests
	// counts every /v1/* request handled.
	Results  int   `json:"results"`
	Requests int64 `json:"requests"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
