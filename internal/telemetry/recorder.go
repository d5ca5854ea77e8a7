package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Recorder encodes what the pipeline reports into the metric registry and
// the optional JSONL event sink, through one entry point per kind of
// report: RecordBatch once per batch, whatever its outcome; the health
// machine's and the supervisor's hooks (state, watchdog fires, restarts,
// shed, refused, queue depth), whose events belong to no batch and whose
// recorder several supervisors may share; RecordQuerySession and
// RecordQueryMiss for reader sessions beside the writer; and the durable
// manager's RecordDurableRetry, RecordRecovery and RecordCheckpoint, which
// also run during recovery and on close, outside any batch.
//
// A nil *Recorder is a valid disabled recorder — every method short-
// circuits — and the core pipeline additionally guards its event
// assembly behind a nil check so the disabled path performs no
// allocation at all.
type Recorder struct {
	reg  *Registry
	sink *EventSink

	batches        *Counter
	edges          *Counter
	deletes        *Counter
	affected       *Counter
	processed      *Counter
	edgesTraversed *Counter
	triggered      *Counter
	skipped        *Counter
	nodes          *Gauge

	updateLat   *Histogram
	computeLat  *Histogram
	totalLat    *Histogram
	triggerFrac *Histogram

	dsIngested  *Counter
	dsInserted  *Counter
	dsScan      *Counter
	dsConflicts *Counter
	dsMetaOps   *Counter
	dsPromos    *Counter
	dsDemos     *Counter
	dsImbalance *Gauge

	viewRefreshLat *Histogram
	viewDirtyFrac  *Gauge
	viewDelta      *Counter
	viewFull       *Counter
	viewWritten    *Counter

	// Compute-phase worker skew: the straggler ratio (max/mean busy time
	// across the workers that did any work in the batch) and lazily
	// created per-worker busy gauges, so edge-balanced scheduling skew
	// is visible in /metrics without loading a trace.
	straggler       *Gauge
	stragglerHist   *Histogram
	workerBusyTotal *Counter
	workerMu        sync.Mutex
	workerBusy      []*Gauge

	// Non-blocking query serving: epoch publications, the fate of the
	// double buffers behind superseded snapshots, and the reader side
	// (sessions, per-session query counts, pin-time staleness).
	epochsPublished *Counter
	epochReclaimed  *Counter
	epochDropped    *Counter
	epochPins       *Gauge
	queries         *Counter
	querySessions   *Counter
	queryMisses     *Counter
	queryStaleness  *Gauge

	walAppends   *Counter
	walBytes     *Counter
	walFsyncLat  *Histogram
	checkpoints  *Counter
	recoveries   *Counter
	replayed     *Counter
	quarantines  *Counter
	applyRetries *Counter

	// Supervised-runtime health: the state machine's current state (by
	// ordinal) and transition count, durable I/O retries, watchdog fires,
	// supervised phase restarts, and the ingest queue's shed/refusal/depth.
	healthState       *Gauge
	healthTransitions *Counter
	durableRetries    *Counter
	watchdogFires     *Counter
	phaseRestarts     *Counter
	shedBatches       *Counter
	refusedIngest     *Counter
	queueDepth        *Gauge
}

// NewRecorder builds a recorder over reg (required) and sink (optional:
// nil disables the event log but keeps the metrics).
func NewRecorder(reg *Registry, sink *EventSink) *Recorder {
	r := &Recorder{reg: reg, sink: sink}
	r.batches = reg.Counter("saga_batches_total", "Batches processed")
	r.edges = reg.Counter("saga_edges_ingested_total", "Edge insertions offered to the update phase")
	r.deletes = reg.Counter("saga_edges_deleted_total", "Edge deletions applied by mixed batches")
	r.affected = reg.Counter("saga_affected_vertices_total", "Deduplicated affected vertices handed to the compute phase")
	r.processed = reg.Counter("saga_vertices_processed_total", "Vertex recomputations performed by the compute phase")
	r.edgesTraversed = reg.Counter("saga_edges_traversed_total", "Neighbor records read by the compute phase")
	r.triggered = reg.Counter("saga_inc_triggered_total", "INC recomputations that propagated past the triggering threshold")
	r.skipped = reg.Counter("saga_inc_skipped_total", "INC recomputations absorbed by the triggering threshold")
	r.nodes = reg.Gauge("saga_graph_nodes", "Vertices in the evolving graph")
	r.updateLat = reg.Histogram("saga_update_latency_seconds", "Update phase latency per batch", nil)
	r.computeLat = reg.Histogram("saga_compute_latency_seconds", "Compute phase latency per batch", nil)
	r.totalLat = reg.Histogram("saga_batch_latency_seconds", "Batch processing latency per batch (Equation 1)", nil)
	r.triggerFrac = reg.Histogram("saga_inc_trigger_fraction", "Per-batch fraction of processed vertices that triggered", FractionBuckets)
	r.dsIngested = reg.Counter("saga_ds_edges_ingested_total", "UpdateProfile: edge records offered to the store")
	r.dsInserted = reg.Counter("saga_ds_inserted_total", "UpdateProfile: records that created a new adjacency entry")
	r.dsScan = reg.Counter("saga_ds_scan_steps_total", "UpdateProfile: elements examined by pre-insert searches")
	r.dsConflicts = reg.Counter("saga_ds_lock_conflicts_total", "UpdateProfile: lock acquisitions that found the lock held")
	r.dsMetaOps = reg.Counter("saga_ds_meta_ops_total", "UpdateProfile: degree-query and flush meta-operations")
	r.dsPromos = reg.Counter("saga_ds_tier_promotions_total", "UpdateProfile: per-vertex representation upgrades in degree-adaptive structures")
	r.dsDemos = reg.Counter("saga_ds_tier_demotions_total", "UpdateProfile: per-vertex representation downgrades under deletions")
	r.dsImbalance = reg.Gauge("saga_ds_chunk_imbalance", "UpdateProfile: max/mean chunk load of the latest batch")
	r.straggler = reg.Gauge("saga_compute_straggler_ratio", "Max/mean worker busy time of the latest batch's compute phase (1.0 = balanced)")
	r.stragglerHist = reg.Histogram("saga_compute_straggler", "Per-batch compute-phase straggler ratio (max/mean worker busy time)", StragglerBuckets)
	r.workerBusyTotal = reg.Counter("saga_compute_worker_busy_ns_total", "Summed compute-phase worker busy time across all workers and batches")
	r.viewRefreshLat = reg.Histogram("saga_view_refresh_seconds", "Compute-view CSR mirror refresh latency per batch", nil)
	r.viewDirtyFrac = reg.Gauge("saga_view_dirty_fraction", "Fraction of vertices re-flattened by the latest view refresh")
	r.viewDelta = reg.Counter("saga_view_delta_rebuilds_total", "View refreshes that relocated only the dirty runs")
	r.viewFull = reg.Counter("saga_view_full_rebuilds_total", "View refreshes that compacted the mirror into a fresh arena (including the first build)")
	r.viewWritten = reg.Counter("saga_view_entries_written_total", "Adjacency entries written into the mirror by view refreshes")
	r.epochsPublished = reg.Counter("saga_epochs_published_total", "Snapshots published for non-blocking queries")
	r.epochReclaimed = reg.Counter("saga_epoch_buffers_reclaimed_total", "Superseded snapshots whose buffers drained and returned to the double buffer")
	r.epochDropped = reg.Counter("saga_epoch_buffers_dropped_total", "Superseded snapshots abandoned to the GC because readers still pinned them")
	r.epochPins = reg.Gauge("saga_query_pinned_handles", "Query handles currently pinning an epoch")
	r.queries = reg.Counter("saga_queries_total", "Reads served from pinned epochs")
	r.querySessions = reg.Counter("saga_query_sessions_total", "Pin/release query sessions completed")
	r.queryMisses = reg.Counter("saga_query_misses_total", "Query acquisitions that found no published epoch")
	r.queryStaleness = reg.Gauge("saga_query_staleness_batches", "Batches behind the latest epoch at the most recent session release")
	r.walAppends = reg.Counter("saga_wal_appends_total", "Batch records appended to the write-ahead log")
	r.walBytes = reg.Counter("saga_wal_bytes_total", "Bytes appended to the write-ahead log")
	r.walFsyncLat = reg.Histogram("saga_wal_fsync_seconds", "WAL fsync latency per flushed append", nil)
	r.checkpoints = reg.Counter("saga_checkpoints_total", "Checkpoint snapshots written")
	r.recoveries = reg.Counter("saga_recoveries_total", "Crash recoveries performed (checkpoint load + WAL replay)")
	r.replayed = reg.Counter("saga_replayed_batches_total", "WAL batches replayed during recovery")
	r.quarantines = reg.Counter("saga_quarantined_batches_total", "Poison batches quarantined to .poison files")
	r.applyRetries = reg.Counter("saga_apply_retries_total", "Batch apply retries after a recovered failure")
	r.healthState = reg.Gauge("saga_health_state", "Pipeline health state ordinal (0 healthy, 1 degraded-durability, 2 read-only, 3 failed)")
	r.healthTransitions = reg.Counter("saga_health_transitions_total", "Health state machine transitions")
	r.durableRetries = reg.Counter("saga_durable_io_retries_total", "Durable I/O retries (WAL appends/fsyncs and checkpoint writes)")
	r.watchdogFires = reg.Counter("saga_watchdog_fires_total", "Phase watchdog deadline expirations")
	r.phaseRestarts = reg.Counter("saga_phase_restarts_total", "Supervised pipeline rebuilds after a watchdog fire or phase panic")
	r.shedBatches = reg.Counter("saga_shed_batches_total", "Batches dropped by the bounded ingest queue's shed policy")
	r.refusedIngest = reg.Counter("saga_refused_batches_total", "Batches refused because the pipeline was read-only or failed")
	r.queueDepth = reg.Gauge("saga_ingest_queue_depth", "Batches waiting in the bounded ingest queue")
	return r
}

// RecordHealthState folds a health transition into the metrics: the new
// state's ordinal and one transition count.
func (r *Recorder) RecordHealthState(ordinal int) {
	if r == nil {
		return
	}
	r.healthState.Set(float64(ordinal))
	r.healthTransitions.Inc()
}

// RecordDurableRetry counts one durable I/O retry (one aggregate counter
// keeps cardinality flat; the health report carries the per-op detail).
func (r *Recorder) RecordDurableRetry() {
	if r == nil {
		return
	}
	r.durableRetries.Inc()
}

// RecordWatchdogFire counts a phase watchdog expiration.
func (r *Recorder) RecordWatchdogFire() {
	if r == nil {
		return
	}
	r.watchdogFires.Inc()
}

// RecordPhaseRestart counts a supervised pipeline rebuild.
func (r *Recorder) RecordPhaseRestart() {
	if r == nil {
		return
	}
	r.phaseRestarts.Inc()
}

// RecordShedBatch counts a batch dropped by the shed policy.
func (r *Recorder) RecordShedBatch() {
	if r == nil {
		return
	}
	r.shedBatches.Inc()
}

// RecordRefusedIngest counts a batch refused in read-only/failed state.
func (r *Recorder) RecordRefusedIngest() {
	if r == nil {
		return
	}
	r.refusedIngest.Inc()
}

// RecordQueueDepth tracks the bounded ingest queue's occupancy.
func (r *Recorder) RecordQueueDepth(n int) {
	if r == nil {
		return
	}
	r.queueDepth.Set(float64(n))
}

// RecordQuerySession folds one completed pin/release session into the
// metrics: how many reads it served and how many batches stale it was
// when released.
func (r *Recorder) RecordQuerySession(queries, staleness uint64) {
	if r == nil {
		return
	}
	r.querySessions.Inc()
	r.queries.Add(queries)
	r.queryStaleness.Set(float64(staleness))
}

// RecordQueryMiss counts an acquisition that found no published epoch.
func (r *Recorder) RecordQueryMiss() {
	if r == nil {
		return
	}
	r.queryMisses.Inc()
}

// RecordCheckpoint counts a written checkpoint snapshot.
func (r *Recorder) RecordCheckpoint() {
	if r == nil {
		return
	}
	r.checkpoints.Inc()
}

// RecordRecovery counts one recovery pass and the batches it replayed.
func (r *Recorder) RecordRecovery(replayed int) {
	if r == nil {
		return
	}
	r.recoveries.Inc()
	r.replayed.Add(uint64(replayed))
}

// Registry exposes the metric registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// RecordBatch encodes one batch, whatever its outcome, into the metrics
// and the event log: the WAL, retry and quarantine counters from every
// event, the per-batch metrics from an applied one only, and one log line
// per event. The event is encoded before RecordBatch returns and no
// reference to it is kept, so its WorkerBusyNS may alias the caller's
// scratch. ev's timestamp is stamped here if unset.
func (r *Recorder) RecordBatch(ev *BatchEvent) {
	if r == nil {
		return
	}
	if ev.TimeUnixMS == 0 {
		ev.TimeUnixMS = time.Now().UnixMilli()
	}
	if ev.WALBytes > 0 {
		r.walAppends.Inc()
		r.walBytes.Add(uint64(ev.WALBytes))
		if ev.WALFsyncNS > 0 {
			r.walFsyncLat.Observe(time.Duration(ev.WALFsyncNS).Seconds())
		}
	}
	r.applyRetries.Add(uint64(ev.Retries))
	if ev.Quarantined != "" {
		r.quarantines.Inc()
	}
	if ev.Applied {
		r.recordApplied(ev)
	}
	if r.sink != nil {
		r.sink.Write(ev) // first error is sticky inside the sink
	}
}

// recordApplied folds an applied batch's measurements into the metrics.
func (r *Recorder) recordApplied(ev *BatchEvent) {
	r.batches.Inc()
	r.edges.Add(uint64(ev.Edges))
	r.deletes.Add(uint64(ev.Deletes))
	r.affected.Add(uint64(ev.Affected))
	r.processed.Add(ev.Processed)
	r.edgesTraversed.Add(ev.EdgesTraversed)
	r.triggered.Add(ev.Triggered)
	r.skipped.Add(ev.Skipped)
	r.nodes.Set(float64(ev.Nodes))
	r.updateLat.Observe(float64(ev.UpdateNS) / 1e9)
	r.computeLat.Observe(float64(ev.ComputeNS) / 1e9)
	r.totalLat.Observe(float64(ev.UpdateNS+ev.ComputeNS) / 1e9)
	if ev.Triggered+ev.Skipped > 0 {
		r.triggerFrac.Observe(ev.TriggerFrac)
	}
	r.dsIngested.Add(ev.DSEdgesIngested)
	r.dsInserted.Add(ev.DSInserted)
	r.dsScan.Add(ev.DSScanSteps)
	r.dsConflicts.Add(ev.DSLockConflicts)
	r.dsMetaOps.Add(ev.DSMetaOps)
	r.dsPromos.Add(ev.DSTierPromotions)
	r.dsDemos.Add(ev.DSTierDemotions)
	if ev.DSImbalance > 0 {
		r.dsImbalance.Set(ev.DSImbalance)
	}
	if ev.Straggler > 0 {
		r.straggler.Set(ev.Straggler)
		r.stragglerHist.Observe(ev.Straggler)
	}
	if len(ev.WorkerBusyNS) > 0 {
		var sum uint64
		for _, ns := range ev.WorkerBusyNS {
			if ns > 0 {
				sum += uint64(ns)
			}
		}
		r.workerBusyTotal.Add(sum)
		for w, ns := range ev.WorkerBusyNS {
			r.workerGauge(w).Set(float64(ns) / 1e9)
		}
	}
	if ev.ViewRefreshed {
		r.viewRefreshLat.Observe(time.Duration(ev.ViewNS).Seconds())
		r.viewDirtyFrac.Set(ev.ViewDirtyFrac)
		r.viewWritten.Add(uint64(ev.ViewWritten))
		if ev.ViewFull {
			r.viewFull.Inc()
		} else {
			r.viewDelta.Inc()
		}
	}
	if ev.Epoch > 0 {
		r.epochsPublished.Inc()
		r.epochReclaimed.Add(ev.EpochReclaimed)
		r.epochDropped.Add(ev.EpochDropped)
		r.epochPins.Set(float64(ev.EpochPins))
	}
}

// workerGauge returns (creating on first use) the busy-seconds gauge for
// worker slot w. The registry has no label support, so worker identity is
// encoded in the metric name; slots are bounded by the configured thread
// count, keeping the cardinality small.
func (r *Recorder) workerGauge(w int) *Gauge {
	r.workerMu.Lock()
	defer r.workerMu.Unlock()
	for len(r.workerBusy) <= w {
		i := len(r.workerBusy)
		g := r.reg.Gauge(fmt.Sprintf("saga_compute_worker_busy_seconds_w%02d", i),
			fmt.Sprintf("Compute-phase busy time of worker slot %d in the latest batch", i))
		r.workerBusy = append(r.workerBusy, g)
	}
	return r.workerBusy[w]
}

// Flush drains the event sink (no-op without one).
func (r *Recorder) Flush() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Flush()
}

// Close flushes and closes the event sink (no-op without one).
func (r *Recorder) Close() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Close()
}
