// Package core is the SAGA-Bench platform: it wires a dynamic graph data
// structure and a compute engine into the streaming execution flow of the
// paper (Fig 1/Fig 2b) — for each incoming edge batch, run the update
// phase (ingest the batch) then the compute phase (run the algorithm on
// the freshly updated structure) — and measures the two latencies whose
// sum is the batch processing latency, the paper's performance metric
// (Equation 1).
//
// A batch is more than those two phases by now, so Pipeline runs every
// batch through one fixed table of seven stages (batch.go) and keeps one
// BatchRecord of what each did and cost; the two latencies and the batch's
// telemetry event, trace spans included, are read off that record.
//
// The package exposes two levels:
//
//   - Pipeline: the programmatic API a downstream application uses to
//     stream its own edges (see examples/).
//   - Runner: the measurement harness the characterization experiments
//     use — it generates a dataset, feeds all batches (optionally
//     repeated), and aggregates per-batch latencies into the paper's P1 /
//     P2 / P3 stages with 95% confidence intervals.
//
// saga:paniccapture — goroutines must capture panics so the poison-batch
// quarantine sees worker failures (enforced by sagavet; see
// internal/analysis).
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/epoch"
	"sagabench/internal/fault"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/stats"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// Pipeline couples one data structure with one compute engine.
type Pipeline struct {
	g      ds.Graph
	engine compute.Engine
	rec    *telemetry.Recorder

	// view is the incrementally maintained flat CSR mirror the compute
	// phase traverses and the publish stage hands out when
	// PipelineConfig.ComputeView or ServeQueries is on (nil otherwise).
	view *ds.ComputeView

	// in is the batch in flight and batch its record (batch.go): the stage
	// bodies read the one and fill the other, so running a batch builds no
	// closure and allocates nothing. Between batches batch is the record of
	// the last one run.
	in    MixedBatch
	batch BatchRecord
	// stageStart is the UnixNano entry time of the stage in flight, named
	// by stageID (0 = none): what a supervisor's watchdog polls.
	stageID    atomic.Int32
	stageStart atomic.Int64

	// pcfg is retained so the durability layer can rebuild fresh
	// components during crash recovery and state rebuilds.
	pcfg PipelineConfig

	// dur is the durability state (nil when durability is disabled — the
	// hot path then never touches it).
	dur      *durState
	poisoned []string

	// health is the degradation state machine (nil only when no degrade
	// policy and no explicit Health were configured; every accessor is
	// nil-receiver safe, so the hot path never branches on it). fenced is
	// flipped by the supervisor when this instance is superseded by a
	// rebuild: a fenced pipeline refuses every durable file operation, so
	// a worker abandoned mid-stall cannot scribble WAL files the
	// replacement now owns.
	health *Health
	fenced atomic.Bool

	// tr is the batch tracer (nil = tracing off, zero cost). With it
	// attached, runBatch numbers and anchors the batch in flight's trace
	// (traceSeq, traceStart), stage appends each completed stage attempt's
	// span to spans, and emit hands the finished event to tr.Record.
	tr         *trace.Tracer
	traceSeq   uint64
	traceStart time.Time
	spans      []telemetry.SpanRecord
	// ev is the event emit fills for the recorder when no tracer keeps
	// it, so an untraced batch's event is not per-batch garbage.
	ev telemetry.BatchEvent

	// em is the epoch-publication manager (nil when ServeQueries is off —
	// the batch loop then never touches it); lastEpoch remembers its
	// counters so emit reports deltas.
	em        *epoch.Manager
	lastEpoch epoch.Stats
	// The two property vectors publication rotates through: latestVals
	// belongs to the latest snapshot, spareVals to the one it superseded
	// and is what the next publish overwrites — nil once ReclaimSpare
	// reports that snapshot still pinned (viewStage). latestGen and
	// spareGen are the engine phases whose values they hold (0: none).
	latestVals, spareVals []float64
	latestGen, spareGen   uint64

	affected     []graph.NodeID
	affectedMark []uint8

	// batchIdx counts applied batches: the index of the batch in flight in
	// its record, event and published snapshot. repeatTag is the event's
	// Repeat.
	batchIdx  int
	repeatTag int
}

// PipelineConfig selects the pipeline's components.
type PipelineConfig struct {
	// DataStructure is a ds registry name (ds.Names() lists them): the
	// paper's "adjshared", "adjchunked", "stinger", "dah", or the
	// extension "hybrid" (degree-adaptive three-tier).
	DataStructure string
	// Algorithm is a compute algorithm name: "bfs", "cc", "mc", "pr",
	// "sssp", or "sswp".
	Algorithm string
	// Model is compute.FS or compute.INC.
	Model compute.Model
	// Directed declares the input stream's directedness.
	Directed bool
	// Threads is the worker count for both phases (0 = 1).
	Threads int
	// MaxNodesHint pre-sizes vertex-indexed state.
	MaxNodesHint int
	// Compute carries algorithm tuning (source vertex, tolerances).
	// Its Threads field is overridden by Threads above.
	Compute compute.Options
	// DS carries data-structure tuning (block size, chunk count, flush
	// threshold). Directed/Threads/MaxNodesHint above take precedence.
	DS ds.Config
	// ComputeView, when true, maintains a flat CSR mirror of the data
	// structure (refreshed after every update stage: the runs of the
	// vertices the batch touched are appended to a log-structured arena
	// and the index is patched to point at them, with a compaction when
	// dead runs outgrow the slack) and hands it to the
	// compute engine, whose kernels then iterate contiguous arrays
	// instead of calling OutNeigh/InNeigh per vertex — the GraphTango
	// split: a dynamic structure for ingest, a flat one for analytics.
	// The refresh cost is charged to the update phase (Equation 1 keeps
	// both sides honest). ServeQueries implies it.
	ComputeView bool
	// ServeQueries enables non-blocking queries, and implies ComputeView:
	// after every batch the pipeline publishes an immutable snapshot of
	// the graph (the refreshed compute-view CSR, both directions) plus the
	// algorithm's property vector, behind an epoch counter with reader
	// refcounts. Concurrent readers then pin epochs through AcquireQuery
	// and read without ever blocking the update phase; the writer never
	// frees or reuses a pinned snapshot's memory (see internal/epoch). The
	// marginal publication cost is one property-vector copy per batch —
	// the CSR is the mirror the refresh built anyway.
	ServeQueries bool
	// Telemetry, when non-nil, receives every batch's one event, whatever
	// its outcome, read off the batch's record: the pipeline's identity
	// (DataStructure, Algorithm, Model above), the batch's fate and WAL
	// figures, an applied batch's latencies, affected-set size, compute
	// stats and structure counts, and with a Tracer its spans. It folds
	// the event into its metrics and writes it to its event log. Several
	// pipelines may share one recorder. Nil disables instrumentation at
	// near-zero cost.
	Telemetry *telemetry.Recorder
	// Tracer, when non-nil, adds each batch's trace to its event — one
	// span per stage attempt (update, view refresh, compute with
	// per-worker range spans, WAL append, checkpoint, ...) timed by the
	// stage's own clock — and keeps the event in a flight-recorder ring
	// that is dumped next to the poison file when a batch is quarantined
	// and served by the telemetry server's /trace endpoint. Several
	// pipelines may share one tracer: each event names its pipeline. Nil
	// disables tracing: the hot path then performs no clock reads and no
	// allocations on the tracer's behalf.
	Tracer *trace.Tracer
	// Durable, when non-nil, enables the crash-safety layer: every batch
	// is write-ahead logged before it is applied, checkpoints are written
	// periodically, and construction recovers whatever state the
	// directory already holds (see internal/durable and durable.go).
	// Nil disables durability at zero per-batch cost.
	Durable *durable.Config
	// Faults, when non-nil, is consulted at the start of the update,
	// compute, and publish stages (ops "update"/"compute"/"publish").
	// An injected stall sleeps in-stage — exactly where a watchdog must
	// catch it — and an injected error panics, which the durable path's
	// panic capture converts into the poison-batch protocol. Durability
	// I/O faults are injected separately through Durable.IO.
	Faults fault.Injector
	// DegradePolicy selects what a permanent (or retry-exhausted)
	// durability fault does: "degrade" keeps applying batches in memory
	// without logging, "read-only" refuses ingest but keeps serving
	// epoch-snapshot queries, "fail" (and "", the zero value) surfaces
	// the error — the pre-supervision behavior.
	DegradePolicy DegradePolicy
	// health, when non-nil, is the shared health machine the pipeline
	// reports transitions to. The supervisor sets it on its own copy, so
	// one Health threads through every rebuild and degradations outlive
	// pipeline instances; when nil and DegradePolicy absorbs faults, the
	// pipeline creates its own.
	health *Health
}

// buildComponents constructs the data structure and engine for cfg; the
// durability layer rebuilds through the same path during recovery.
func buildComponents(cfg PipelineConfig) (ds.Graph, compute.Engine, error) {
	dcfg := cfg.DS
	dcfg.Directed = cfg.Directed
	dcfg.Threads = cfg.Threads
	dcfg.MaxNodesHint = cfg.MaxNodesHint
	g, err := ds.New(cfg.DataStructure, dcfg)
	if err != nil {
		return nil, nil, err
	}
	copts := cfg.Compute
	copts.Threads = cfg.Threads
	// Per-worker busy clocks cost two monotonic clock reads per worker
	// range per round, so only pay for them when an observer is attached
	// (per-batch events, straggler gauges, or batch traces consume them).
	if cfg.Telemetry != nil || cfg.Tracer.Enabled() {
		copts.WorkerTiming = true
	}
	engine, err := compute.NewEngine(cfg.Algorithm, cfg.Model, copts)
	if err != nil {
		return nil, nil, err
	}
	return g, engine, nil
}

// NewPipeline validates the config and builds the pipeline. With a
// durable config, construction opens the durability directory and
// recovers: latest valid checkpoint, then WAL tail replay — an empty
// directory recovers to an empty pipeline, so the first run and every
// restart share one code path.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if err := cfg.DegradePolicy.validate(); err != nil {
		return nil, err
	}
	if cfg.health == nil && cfg.DegradePolicy != "" {
		// An explicit policy needs somewhere to record what it decided —
		// absorbed faults for degrade/read-only, the Failed transition
		// for fail. Only the zero policy (pure pre-supervision behavior)
		// runs without a machine.
		cfg.health = NewHealth(cfg.Telemetry)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	g, engine, err := buildComponents(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{g: g, engine: engine, rec: cfg.Telemetry, tr: cfg.Tracer, pcfg: cfg, health: cfg.health}
	p.initView()
	if cfg.ServeQueries {
		// A snapshot's index buffers and value vector are written again two
		// publishes later, so the manager tracks who still pins them.
		p.em = epoch.NewManager(true)
	}
	if cfg.Durable != nil {
		if err := p.initDurable(*cfg.Durable); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// initView attaches (or detaches) the flat mirror according to the config,
// in the shape the kernel reads: with ComputeView, and always with
// ServeQueries, whose epochs publish the mirror. Called at construction
// and again by the durability layer after it swaps in fresh components: a
// nil-or-fresh view is unbuilt, so the next Refresh full-builds from
// whatever topology the structure then holds.
func (p *Pipeline) initView() {
	p.view = nil
	if !p.pcfg.ComputeView && !p.pcfg.ServeQueries {
		return
	}
	v, ok := ds.NewComputeView(p.g, p.pcfg.Threads)
	if !ok {
		return
	}
	// Don't pay to mirror a direction the registered kernel never reads on
	// every batch: FS SSSP/SSWP never pull from in-neighbors, and FS
	// PageRank reads out-degrees but no out-runs. Served queries keep both
	// directions: a pinned epoch must answer either neighborhood regardless
	// of the algorithm. Both calls are no-ops on undirected graphs.
	alg, model := p.pcfg.Algorithm, p.pcfg.Model
	switch {
	case p.pcfg.ServeQueries:
	case !compute.NeedsInAdjacency(alg, model):
		v.MirrorOutOnly()
	case !compute.NeedsOutAdjacency(alg, model):
		v.MirrorInOnly()
	}
	p.view = v
}

// ComputeGraph is the graph the compute phase traverses: the flat mirror
// when the compute view is active, else the data structure itself. The
// mirror may hold one direction only (see initView); what the kernel
// reads is always there.
func (p *Pipeline) ComputeGraph() ds.Graph {
	if p.view != nil {
		return p.view
	}
	return p.g
}

// LastViewRefresh reports the mirror refresh cost of the most recent batch
// (zero when the view is off).
func (p *Pipeline) LastViewRefresh() ds.RefreshStats { return p.batch.View }

// LastBatch is the record of the most recent batch the pipeline ran, a
// quarantined or failed one included (see BatchRecord). Like every
// accessor but AcquireQuery it must not race a batch in flight.
func (p *Pipeline) LastBatch() BatchRecord { return p.batch }

// Affected is the deduplicated endpoint set the last batch to reach the
// compute stage handed to the engine: adds before dels, each vertex at its
// first sighting (src before dst), endpoints at or above NumNodes skipped.
// It aliases pipeline scratch: read it before the next batch, and do not
// modify it.
func (p *Pipeline) Affected() []graph.NodeID { return p.affected }

// Graph exposes the topology (read-only between updates).
func (p *Pipeline) Graph() ds.Graph { return p.g }

// Engine exposes the compute engine.
func (p *Pipeline) Engine() compute.Engine { return p.engine }

// Values exposes the vertex property array after the latest batch.
func (p *Pipeline) Values() []float64 { return p.engine.Values() }

// BatchLatency is the timing of one processed batch.
type BatchLatency struct {
	Update  time.Duration
	Compute time.Duration
}

// Total is the batch processing latency (Equation 1).
func (l BatchLatency) Total() time.Duration { return l.Update + l.Compute }

// Process ingests one insert-only batch and runs the algorithm on the
// result, returning both latencies. It panics where ProcessMixed returns
// an error (a refusing health state, unrecoverable durability I/O);
// callers that need the error should use ProcessMixed.
func (p *Pipeline) Process(batch graph.Batch) BatchLatency {
	lat, err := p.ProcessMixed(MixedBatch{Adds: batch})
	if err != nil {
		panic(err)
	}
	return lat
}

// overwrittenFor runs the pre-update weight-overwrite scan when (and only
// when) the engine asks for overwrite notifications.
func (p *Pipeline) overwrittenFor(batch graph.Batch) graph.Batch {
	if wca, ok := p.engine.(compute.WeightChangeAware); ok && wca.WantsWeightChanges() {
		return ds.Overwritten(p.g, batch)
	}
	return nil
}

// affectedOf deduplicates the batch's endpoint vertices — the affected
// array of Algorithm 1. (Marking is outside the timed compute phase; the
// paper's update phase likewise knows which vertices it touched.)
// Endpoints at or above NumNodes are skipped: a deletion naming a vertex
// the graph has never seen is a legal no-op, not an affected vertex.
func (p *Pipeline) affectedOf(mb MixedBatch) []graph.NodeID {
	n := p.g.NumNodes()
	for len(p.affectedMark) < n {
		p.affectedMark = append(p.affectedMark, 0)
	}
	p.affected = p.affected[:0]
	for _, batch := range [2]graph.Batch{mb.Adds, mb.Dels} {
		for _, e := range batch {
			if int(e.Src) < n && p.affectedMark[e.Src] == 0 {
				p.affectedMark[e.Src] = 1
				p.affected = append(p.affected, e.Src)
			}
			if int(e.Dst) < n && p.affectedMark[e.Dst] == 0 {
				p.affectedMark[e.Dst] = 1
				p.affected = append(p.affected, e.Dst)
			}
		}
	}
	for _, v := range p.affected {
		p.affectedMark[v] = 0
	}
	return p.affected
}

// Metric selects which latency series to aggregate.
type Metric string

// Aggregatable latency series.
const (
	MetricUpdate  Metric = "update"
	MetricCompute Metric = "compute"
	MetricTotal   Metric = "total"
)

// RunConfig describes one measured experiment.
type RunConfig struct {
	PipelineConfig
	// Dataset generates the input stream.
	Dataset gen.Spec
	// Seed drives generation; repeat r uses Seed+r so repeats see the
	// same stream ordering per repeat index across configurations.
	Seed int64
	// Repeats re-runs the full stream on fresh state (default 1; the
	// paper uses 3).
	Repeats int
	// OnBatch, if set, observes each processed batch (used by the
	// architecture profiler to replay traces).
	OnBatch func(batch int, edges graph.Batch, p *Pipeline, lat BatchLatency)
	// OnPipeline, if set, observes each repeat's freshly built pipeline
	// before its first batch; the returned stop function (may be nil) is
	// called after the repeat's last batch, before the pipeline is closed.
	// The query-load generator attaches here so readers run concurrently
	// with the measured stream.
	OnPipeline func(p *Pipeline) (stop func())
}

// RunResult holds the per-batch latency series of all repeats.
type RunResult struct {
	BatchCount int
	// Update[r][b] / Compute[r][b] are seconds for repeat r, batch b.
	Update  [][]float64
	Compute [][]float64
}

// Run executes the experiment.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.PipelineConfig.Durable != nil {
		return nil, fmt.Errorf("core: Run measures repeats on fresh state and cannot use a durable pipeline (each repeat would recover the previous one); drive a durable Pipeline directly")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	cfg.PipelineConfig.Directed = cfg.Dataset.Directed
	if cfg.PipelineConfig.MaxNodesHint == 0 {
		cfg.PipelineConfig.MaxNodesHint = cfg.Dataset.NumNodes
	}
	res := &RunResult{}
	for r := 0; r < repeats; r++ {
		edges := cfg.Dataset.Generate(cfg.Seed + int64(r))
		if err := res.measureOnce(cfg.PipelineConfig, edges, cfg.Dataset.BatchSize, cfg.OnBatch, cfg.OnPipeline, r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StreamConfig measures a caller-provided edge stream (e.g. a SNAP edge
// list loaded with elio) instead of a generated dataset. Repeats re-run
// the identical stream on fresh state.
type StreamConfig struct {
	PipelineConfig
	Edges     []graph.Edge
	BatchSize int
	Repeats   int
	OnBatch   func(batch int, edges graph.Batch, p *Pipeline, lat BatchLatency)
	// OnPipeline mirrors RunConfig.OnPipeline.
	OnPipeline func(p *Pipeline) (stop func())
}

// RunStream executes the stream experiment.
func RunStream(cfg StreamConfig) (*RunResult, error) {
	if cfg.PipelineConfig.Durable != nil {
		return nil, fmt.Errorf("core: RunStream measures repeats on fresh state and cannot use a durable pipeline (each repeat would recover the previous one); drive a durable Pipeline directly")
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	res := &RunResult{}
	for r := 0; r < repeats; r++ {
		if err := res.measureOnce(cfg.PipelineConfig, cfg.Edges, cfg.BatchSize, cfg.OnBatch, cfg.OnPipeline, r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureOnce streams one repeat on a fresh pipeline, appending its latency
// series.
func (res *RunResult) measureOnce(pc PipelineConfig, edges []graph.Edge, batchSize int, onBatch func(int, graph.Batch, *Pipeline, BatchLatency), onPipeline func(*Pipeline) func(), repeat int) error {
	p, err := NewPipeline(pc)
	if err != nil {
		return err
	}
	p.repeatTag = repeat
	var stop func()
	if onPipeline != nil {
		stop = onPipeline(p)
	}
	batches := graph.Batches(edges, batchSize)
	if res.BatchCount == 0 {
		res.BatchCount = len(batches)
	} else if res.BatchCount != len(batches) {
		return fmt.Errorf("core: repeat %d produced %d batches, want %d", repeat, len(batches), res.BatchCount)
	}
	upd := make([]float64, 0, len(batches))
	cmp := make([]float64, 0, len(batches))
	for bi, b := range batches {
		lat := p.Process(b)
		upd = append(upd, lat.Update.Seconds())
		cmp = append(cmp, lat.Compute.Seconds())
		if onBatch != nil {
			onBatch(bi, b, p, lat)
		}
	}
	if stop != nil {
		stop()
	}
	if err := p.Close(); err != nil {
		return err
	}
	res.Update = append(res.Update, upd)
	res.Compute = append(res.Compute, cmp)
	return nil
}

// Series returns the per-batch series of one repeat for the metric, or an
// error for a metric outside the three aggregatable series.
func (r *RunResult) Series(metric Metric, repeat int) ([]float64, error) {
	u, c := r.Update[repeat], r.Compute[repeat]
	switch metric {
	case MetricUpdate:
		return u, nil
	case MetricCompute:
		return c, nil
	case MetricTotal:
		t := make([]float64, len(u))
		for i := range t {
			t[i] = u[i] + c[i]
		}
		return t, nil
	}
	return nil, fmt.Errorf("core: unknown metric %q (have %q, %q, %q)",
		metric, MetricUpdate, MetricCompute, MetricTotal)
}

// StageSummaries aggregates the metric into the paper's P1/P2/P3 stages:
// each stage pools the corresponding third of every repeat's batch series
// (Section IV-B's averaging methodology).
func (r *RunResult) StageSummaries(metric Metric) ([3]stats.Summary, error) {
	var out [3]stats.Summary
	var pooled [3][]float64
	for rep := range r.Update {
		series, err := r.Series(metric, rep)
		if err != nil {
			return out, err
		}
		for si, rg := range stats.Stages(len(series)) {
			pooled[si] = append(pooled[si], series[rg[0]:rg[1]]...)
		}
	}
	for i := range out {
		out[i] = stats.Summarize(pooled[i])
	}
	return out, nil
}

// UpdateShare reports, per stage, the fraction of batch processing latency
// spent in the update phase (Fig 8).
func (r *RunResult) UpdateShare() ([3]float64, error) {
	var out [3]float64
	upd, err := r.StageSummaries(MetricUpdate)
	if err != nil {
		return out, err
	}
	tot, err := r.StageSummaries(MetricTotal)
	if err != nil {
		return out, err
	}
	for i := range out {
		out[i] = stats.Ratio(upd[i].Mean, tot[i].Mean)
	}
	return out, nil
}

// MixedBatch couples the insertions and deletions that arrived in one
// stream window. The paper's framework handles insert-only streams; mixed
// streams are the natural extension (STINGER-style) and are supported by
// every bundled data structure.
type MixedBatch struct {
	Adds graph.Batch
	Dels graph.Batch
}

// ProcessMixed ingests the additions, applies the deletions, and runs the
// compute phase. It fails up front if the engine's results would be
// invalidated by deletions (monotone incremental algorithms; see
// compute.Engine.HandlesDeletions).
//
// On a durable pipeline the batch is validated, write-ahead logged, and
// applied under panic-recovery with retries; a batch that persistently
// fails is quarantined and the returned error is nil — the stream keeps
// moving (see PoisonFiles). A non-nil error then means unrecoverable
// durability I/O, not a bad batch.
func (p *Pipeline) ProcessMixed(mb MixedBatch) (BatchLatency, error) {
	if err := p.health.refuse(); err != nil {
		return BatchLatency{}, err
	}
	if err := p.checkMixedSupport(mb); err != nil {
		return BatchLatency{}, err
	}
	return p.runBatch(mb, 0, false)
}

// Health exposes the pipeline's health machine (nil when neither a
// degrade policy nor an explicit Health was configured; HealthState
// reads through a nil Health as healthy).
func (p *Pipeline) Health() *Health { return p.health }

// Fence marks this instance superseded: every subsequent durable file
// operation is refused. The supervisor fences a pipeline it is about to
// replace so a worker abandoned mid-stall cannot write WAL or
// checkpoint files the rebuilt instance now owns.
func (p *Pipeline) Fence() { p.fenced.Store(true) }

// HealthReport assembles the structured exit report: final health
// state, transition history, and the counters that describe what the
// run survived (retries, restarts, sheds) and what it lost
// (quarantined batches).
func (p *Pipeline) HealthReport() HealthReport {
	r := p.health.report()
	if p.dur != nil {
		r.DurableRetry = p.dur.man.Retries()
	}
	r.Quarantined = append([]string(nil), p.poisoned...)
	if s, ok := p.pcfg.Faults.(*fault.Schedule); ok && s != nil {
		r.Injections = s.Summary()
	}
	if r.Injections == nil && p.pcfg.Durable != nil {
		if s, ok := p.pcfg.Durable.IO.(*fault.Schedule); ok && s != nil {
			r.Injections = s.Summary()
		}
	}
	return r
}

// checkMixedSupport rejects deletion batches the engine cannot process —
// a configuration error, checked before anything is logged so it is never
// mistaken for a poison batch. Every data structure deletes.
func (p *Pipeline) checkMixedSupport(mb MixedBatch) error {
	if len(mb.Dels) == 0 {
		return nil
	}
	if !p.engine.HandlesDeletions() {
		return fmt.Errorf("core: %s/%s cannot incrementally process deletions (use the fs model)",
			p.engine.Name(), p.engine.Model())
	}
	return nil
}
