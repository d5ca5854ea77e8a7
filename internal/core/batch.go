package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/epoch"
	"sagabench/internal/fault"
	"sagabench/internal/telemetry"
)

// This file is the life of one batch (DESIGN.md has the long form). Every
// batch — offered live, or replayed from the WAL during recovery — enters
// runBatch, which walks the stage table once, in order:
//
//	validate -> wal -> [ update -> view -> compute -> publish ] -> checkpoint
//
// validate, wal and checkpoint run only for a live batch on a durable
// pipeline; view only with the compute view attached (which query serving
// implies), publish only with query serving on. The bracketed stages are
// the apply: on a durable pipeline it is panic-caught and retried, and a
// batch that keeps failing is quarantined.

// StageID names one stage of a batch and indexes BatchRecord.Stage.
type StageID int

// The stages of a batch, in execution order.
const (
	StageValidate StageID = iota
	StageWAL
	StageUpdate
	StageView
	StageCompute
	StagePublish
	StageCheckpoint
	NumStages
)

// stages is the stage table: the name the watchdog and the pprof labels
// know a stage by, its trace span, and the fault point at its
// start (the durable stages' I/O faults are injected inside
// internal/durable instead, through Durable.IO).
var stages = [NumStages]struct {
	name, span string
	op         fault.Op
}{
	StageValidate:   {name: "validate", span: "validate"},
	StageWAL:        {name: "wal", span: "wal.append"},
	StageUpdate:     {name: "update", span: "update", op: fault.OpUpdate},
	StageView:       {name: "view", span: "view.refresh"},
	StageCompute:    {name: "compute", span: "compute", op: fault.OpCompute},
	StagePublish:    {name: "publish", span: "epoch.publish", op: fault.OpPublish},
	StageCheckpoint: {name: "checkpoint", span: "checkpoint"},
}

func (s StageID) String() string { return stages[s].name }

// BatchRecord is what the pipeline knows about one batch once it has run;
// the returned latencies and the batch's telemetry event, trace spans
// included, are read off it (stage, emit).
type BatchRecord struct {
	// Index counts the batches the pipeline applied before this one.
	Index int
	// Adds and Dels are the batch's sizes, Affected the deduplicated
	// endpoint set handed to compute, Nodes the vertex count after update.
	Adds, Dels, Affected, Nodes int
	// Stage is the wall time of every stage that ran (zero: it did not;
	// after a retry, the last attempt's).
	Stage [NumStages]time.Duration
	// What the update, view, compute and publish stages reported. DS holds
	// the structure's counts taken after the update stage (summed over
	// retried attempts); its ChunkLoads alias pipeline scratch, and
	// Compute's Ranges and WorkerBusyNS engine scratch, until the next
	// batch. Epoch and EpochEdges are the published snapshot's number and
	// edge count, EpochValues how many slots of its property vector the
	// publish wrote (all of them, or the ones the last two phases changed).
	DS          ds.UpdateProfile
	View        ds.RefreshStats
	Compute     compute.Stats
	Epoch       uint64
	EpochEdges  int
	EpochValues int
	// WALSeq is the sequence number the batch was logged under (0: no
	// durability, rejected by validation, or applied unlogged with
	// durability degraded), WALBytes and WALFsync the size of its record
	// and the fsync that followed (0: the wal stage did not append, or the
	// policy skipped the flush). Retries counts re-attempted applies.
	WALSeq   uint64
	WALBytes int
	WALFsync time.Duration
	Retries  int
	// Applied: the apply stages completed, the batch is part of the state.
	// Err is the error its caller got; Quarantined the cause of a batch
	// set aside as a poison file instead (its caller got nil).
	Applied     bool
	Err         error
	Quarantined string
}

// Latency is the paper's two-phase split (Equation 1). The mirror refresh
// is part of ingesting the batch — GraphTango charges its flat-side
// maintenance the same way. Zero for a batch that was not applied.
func (r *BatchRecord) Latency() BatchLatency {
	if !r.Applied {
		return BatchLatency{}
	}
	return BatchLatency{
		Update:  r.Stage[StageUpdate] + r.Stage[StageView],
		Compute: r.Stage[StageCompute],
	}
}

// runBatch runs one batch, offered live (seq 0; the wal stage assigns one)
// or replayed from WAL record seq: it walks the stages and emits the
// record, on every outcome. A poison batch is quarantined and returns nil;
// an error is a failed delete on a pipeline without durability, or
// unrecoverable durability I/O.
func (p *Pipeline) runBatch(mb MixedBatch, seq uint64, replay bool) (BatchLatency, error) {
	live := p.dur != nil && !replay
	if live && p.fenced.Load() {
		return BatchLatency{}, errFenced
	}
	p.in = mb
	p.batch = BatchRecord{Index: p.batchIdx, Adds: len(mb.Adds), Dels: len(mb.Dels), WALSeq: seq,
		DS: ds.UpdateProfile{ChunkLoads: p.batch.DS.ChunkLoads[:0]}}
	if p.tr != nil {
		p.traceSeq, p.traceStart, p.spans = p.tr.NextSeq(), time.Now(), nil
	}
	p.batch.Err = p.walk(live)
	p.emit(replay)
	if p.batch.Quarantined != "" {
		if p.tr.Enabled() {
			// The flight-recorder ring — the batches leading up to the
			// death plus the dying batch emit just sealed with its cause —
			// goes next to the poison file, so the forensic record travels
			// with the reproducer.
			// saga:allow errcheck-durable -- best-effort sidecar: the poison file is the primary artifact.
			_ = p.tr.DumpChromeFile(strings.TrimSuffix(p.poisoned[len(p.poisoned)-1], ".poison") + ".trace.json")
		}
		if p.batch.WALSeq > 0 && !replay {
			// The failed apply may have half-mutated the graph or the
			// engine; rebuild from disk (the tombstone keeps the poison
			// batch out), and keep this batch's record over those of the
			// batches the rebuild replays. A replayed batch leaves the
			// rebuild to recoverDurable, which reads the record. The
			// replayed batches start from an empty record so they do not
			// take over rec's chunk-load scratch.
			rec := p.batch
			p.batch = BatchRecord{}
			err := p.recoverDurable()
			p.batch = rec
			return BatchLatency{}, err
		}
	}
	return p.batch.Latency(), p.batch.Err
}

// walk runs the in-flight batch's stages in table order and routes each
// stage's failure; the returned error is the batch's.
func (p *Pipeline) walk(live bool) error {
	if live {
		if err := p.stage(StageValidate); err != nil {
			// Rejected before it consumed a sequence number.
			return p.quarantine(err)
		}
		// The sequence number stays 0 in degraded-durability mode: the
		// batch applies in memory only and the quarantine/rebuild machinery
		// (which needs a logged record to tombstone) is off.
		if !p.dur.suspended {
			if err := p.stage(StageWAL); err != nil {
				if derr := p.durableFault(StageWAL, err); derr != nil {
					return derr
				}
			}
		}
	}
	if err := p.applyRetry(); err != nil {
		if p.dur == nil {
			return err
		}
		if p.batch.WALSeq == 0 {
			// Nothing was logged, so there is no tombstone to write and no
			// durable state to rebuild the half-mutated components from.
			p.health.To(Failed, fmt.Sprintf("apply failed with durability suspended: %v", err))
			return err
		}
		return p.quarantine(err)
	}
	p.batch.Applied = true
	if live {
		p.dur.sinceCkpt++
		if every := p.dur.man.Config().CheckpointEvery; every > 0 && !p.dur.ckptSuspended && p.dur.sinceCkpt >= every {
			if err := p.stage(StageCheckpoint); err != nil {
				return p.durableFault(StageCheckpoint, err)
			}
		}
	}
	return nil
}

// stage is the one place a stage body meets what observes stages: the
// pprof labels (batch/stage/ds/alg/model), the supervisor's watchdog,
// the fault injector, and the clock whose reading lands in the record and,
// with a tracer attached, in the stage's span. An injected error panics;
// applyCaught turns it into the poison-batch protocol on a durable
// pipeline, the supervisor's worker capture into a restart otherwise.
func (p *Pipeline) stage(id StageID) (err error) {
	st := &stages[id]
	if p.tr.PprofLabels() {
		defer p.tr.Label(p.traceSeq, st.name, p.pcfg.DataStructure, p.pcfg.Algorithm, string(p.pcfg.Model))()
	}
	// The watchdog's signal precedes the injector: an injected stall must
	// sleep while the watchdog already sees the stage in flight.
	p.stageID.Store(int32(id))
	p.stageStart.Store(time.Now().UnixNano())
	defer p.stageStart.Store(0)
	if st.op != "" {
		if ferr := fault.Inject(p.pcfg.Faults, st.op); ferr != nil {
			panic(ferr)
		}
	}
	t0 := time.Now()
	switch id {
	case StageValidate:
		err = durable.ValidateBatch(p.in.Adds, p.in.Dels, p.dur.man.Config().MaxNodeID)
	case StageWAL:
		err = p.walStage()
	case StageUpdate:
		err = p.updateStage()
	case StageView:
		p.viewStage()
	case StageCompute:
		p.computeStage()
	case StagePublish:
		p.publishStage()
	case StageCheckpoint:
		err = p.writeDurableCheckpoint()
	}
	p.batch.Stage[id] = time.Since(t0)
	if p.tr != nil {
		p.traceStage(id, t0, err)
	}
	return err
}

// traceStage appends the span of a completed stage attempt to the batch
// trace: the stage's own clock readings and its attributes read off the
// record, and under a compute span one child per worker range. A retried
// batch keeps the spans of every attempt.
func (p *Pipeline) traceStage(id StageID, t0 time.Time, err error) {
	parent := int32(len(p.spans))
	start := int64(t0.Sub(p.traceStart))
	p.spans = append(p.spans, telemetry.SpanRecord{ID: parent, Parent: -1, Worker: -1, Stage: stages[id].span,
		StartNS: start, EndNS: start + int64(p.batch.Stage[id]), Attrs: stageAttrs(id, &p.batch, err)})
	if id != StageCompute {
		return
	}
	for _, rg := range p.batch.Compute.Ranges {
		start := int64(rg.Start.Sub(p.traceStart))
		p.spans = append(p.spans, telemetry.SpanRecord{ID: int32(len(p.spans)), Parent: parent, Worker: int32(rg.Worker),
			Stage: rg.Pass, StartNS: start, EndNS: start + int64(rg.Dur), Attrs: []telemetry.Attr{
				telemetry.Int(rg.StepKey, int64(rg.Step)), telemetry.Int("vertices", int64(rg.Vertices)),
				telemetry.Int(rg.CountKey, int64(rg.Count))}})
	}
}

// stageAttrs are the attributes of stage id's span, read off the record
// the stage wrote; a failed stage carries only its error.
func stageAttrs(id StageID, r *BatchRecord, err error) []telemetry.Attr {
	if err != nil {
		return []telemetry.Attr{telemetry.Str("error", err.Error())}
	}
	var a []telemetry.Attr
	switch id {
	case StageWAL:
		a = append(a, telemetry.Int("seq", int64(r.WALSeq)), telemetry.Int("bytes", int64(r.WALBytes)))
		if r.WALFsync > 0 {
			a = append(a, telemetry.Int("fsync_ns", r.WALFsync.Nanoseconds()))
		}
	case StageUpdate:
		a = append(a, telemetry.Int("edges", int64(r.Adds)))
		if r.Dels > 0 {
			a = append(a, telemetry.Int("deletes", int64(r.Dels)))
		}
	case StageView:
		a = append(a, telemetry.Float("dirty_frac", r.View.DirtyFraction()), telemetry.Int("written", int64(r.View.Written)))
		if r.View.Full {
			a = append(a, telemetry.Int("full", 1))
		}
	case StageCompute:
		es := &r.Compute
		a = append(a, telemetry.Int("affected", int64(r.Affected)), telemetry.Int("iterations", int64(es.Iterations)),
			telemetry.Int("processed", int64(es.Processed)))
		if s := es.StragglerRatio(); s > 0 {
			a = append(a, telemetry.Float("straggler", s))
		}
	case StagePublish:
		a = append(a, telemetry.Int("epoch", int64(r.Epoch)), telemetry.Int("nodes", int64(r.Nodes)),
			telemetry.Int("edges", int64(r.EpochEdges)))
	}
	return a
}

func (p *Pipeline) walStage() error {
	seq, err := p.dur.man.Append(p.in.Adds, p.in.Dels)
	if err != nil {
		return err
	}
	p.batch.WALSeq = seq
	p.batch.WALBytes, p.batch.WALFsync = p.dur.man.LastAppendStats()
	return nil
}

func (p *Pipeline) updateStage() error {
	p.g.Update(p.in.Adds)
	if len(p.in.Dels) > 0 {
		return p.g.(ds.Deleter).Delete(p.in.Dels)
	}
	return nil
}

func (p *Pipeline) viewStage() {
	// The refresh is about to patch the spare index buffers (and, when it
	// compacts, may refill the arena only they reach), and the publish
	// after it to overwrite the spare value vector; all belong to the
	// snapshot superseded two publishes ago. If readers still pin it,
	// abandon them to the GC (refresh and publish then allocate fresh
	// ones) instead of tearing the pinned epoch — the writer never frees
	// under a reader.
	if p.em != nil && p.em.ReclaimSpare() {
		p.view.DropSpares()
		p.spareVals, p.spareGen = nil, 0
	}
	p.batch.View = p.view.Refresh(p.in.Adds, p.in.Dels)
}

func (p *Pipeline) computeStage() {
	p.engine.PerformAlg(p.ComputeGraph(), p.affected)
	p.batch.Compute = p.engine.Stats()
}

// publishStage publishes the post-batch state as a new epoch. The
// published CSR is the mirror the refresh just brought up to date — zero
// extra topology work. What the mirror writes again two batches from now
// (its spare index buffer, and the arena only that index reaches) is gated
// by ReclaimSpare in viewStage, and the property vector rides the same
// gate: the values go into the vector of the snapshot ReclaimSpare just
// reported drained, and a fresh one is allocated only when that snapshot
// is still pinned. That vector is two publishes old, and an INC engine
// brings it up to date by writing only the vertices its last two phases
// changed, as the view catches its spare index up by replaying the
// previous dirty list; spareGen and latestGen name the phase each vector
// holds, so a vector further behind, a fresh one, or one of a rebuilt
// engine gets every value, as the FS engines' always do.
func (p *Pipeline) publishStage() {
	vals, gen, written := p.engine.ValuesSince(p.spareVals, p.spareGen)
	s := &epoch.Snapshot{
		Batch:    p.batchIdx,
		Wall:     time.Now(),
		CSR:      *p.view.FlatCSR(),
		Values:   vals,
		Directed: p.pcfg.Directed,
	}
	p.batch.Epoch, p.batch.EpochEdges, p.batch.EpochValues = p.em.Publish(s), s.NumEdges(), written
	p.spareVals, p.latestVals = p.latestVals, vals
	p.spareGen, p.latestGen = p.latestGen, gen
}

// applyRetry runs the apply, on a durable pipeline with panic capture and
// exponential-backoff retries: application is idempotent at the structure
// level (inserts overwrite, deletes of missing edges no-op), so retrying
// over a half-applied attempt converges to the same state.
func (p *Pipeline) applyRetry() error {
	if p.dur == nil {
		return p.apply()
	}
	cfg := p.dur.man.Config()
	backoff := cfg.RetryBackoff
	var err error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.batch.Retries = attempt
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = p.applyCaught(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("core: batch seq %d failed %d attempts: %w", p.batch.WALSeq, cfg.MaxRetries+1, err)
}

// applyCaught is one apply attempt, converting panics anywhere in its
// stages into errors. Simulated crashes are re-raised: a kill is not a
// poison batch.
func (p *Pipeline) applyCaught() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				panic(c)
			}
			err = fmt.Errorf("core: apply panic: %v", r)
		}
	}()
	if probe := p.dur.man.Config().ApplyProbe; probe != nil {
		if perr := probe(p.batch.WALSeq, p.in.Adds, p.in.Dels); perr != nil {
			return perr
		}
	}
	return p.apply()
}

// apply runs the stages that change the in-memory state, with the untimed
// bookkeeping between them.
//
// Insert-only streams still carry deletion-like events for the monotone
// weighted incremental algorithms: a duplicate insert overwrites the stored
// weight, and a value derived through the old weight may become stale in a
// way selective triggering cannot repair (see compute.WeightChangeAware).
// The overwrite scan and the affected-set marking run outside the timed
// stages — the paper's update phase likewise knows which edges it rewrote
// and which vertices it touched.
func (p *Pipeline) apply() error {
	olds := p.overwrittenFor(p.in.Adds)
	if err := p.stage(StageUpdate); err != nil {
		return err
	}
	p.batch.Nodes = p.g.NumNodes()
	p.g.(*ds.TwoCopy).TakeProfile(&p.batch.DS)
	if p.view != nil {
		if err := p.stage(StageView); err != nil {
			return err
		}
	}
	// Overwritten weights and true deletions invalidate in one call so the
	// cone is grown against a consistent pre-reset value array.
	if invalidating := append(olds, p.in.Dels...); len(invalidating) > 0 {
		if da, ok := p.engine.(compute.DeletionAware); ok {
			da.NotifyDeletions(p.ComputeGraph(), invalidating)
		}
	}
	p.batch.Affected = len(p.affectedOf(p.in))
	if err := p.stage(StageCompute); err != nil {
		return err
	}
	if p.em != nil {
		return p.stage(StagePublish)
	}
	return nil
}

// emit turns the finished record into the batch's one event, whatever the
// outcome: its identity, its fate and WAL figures, the measurements of an
// applied batch, and with a tracer attached its trace. The recorder folds
// the event into the metrics and writes it to the event log; the tracer
// keeps it in the flight-recorder ring.
func (p *Pipeline) emit(replay bool) {
	r := &p.batch
	if r.Applied {
		p.batchIdx++
	}
	if p.rec == nil && p.tr == nil {
		return
	}
	ev := &p.ev
	if p.tr != nil {
		ev = new(telemetry.BatchEvent) // the ring keeps it
	}
	*ev = telemetry.BatchEvent{
		TimeUnixMS:  time.Now().UnixMilli(),
		DS:          p.pcfg.DataStructure,
		Alg:         p.pcfg.Algorithm,
		Model:       string(p.pcfg.Model),
		Repeat:      p.repeatTag,
		Batch:       r.Index,
		Applied:     r.Applied,
		Replay:      replay,
		Quarantined: r.Quarantined,
		WALSeq:      r.WALSeq,
		WALBytes:    r.WALBytes,
		WALFsyncNS:  r.WALFsync.Nanoseconds(),
		Retries:     r.Retries,
	}
	if r.Err != nil {
		ev.Error = r.Err.Error()
	}
	if r.Applied {
		es, lat := &r.Compute, r.Latency()
		ev.Edges, ev.Deletes, ev.Nodes, ev.Affected = r.Adds, r.Dels, r.Nodes, r.Affected
		ev.UpdateNS, ev.ComputeNS = lat.Update.Nanoseconds(), lat.Compute.Nanoseconds()
		ev.Iterations, ev.Processed, ev.EdgesTraversed = es.Iterations, es.Processed, es.EdgesTraversed
		ev.Triggered, ev.Skipped, ev.TriggerFrac = es.Triggered, es.Skipped, es.TriggerFraction()
		if used := es.WorkersUsed(); used > 0 {
			// Stats.WorkerBusyNS aliases engine scratch: RecordBatch keeps
			// no reference to it, and the ring's event gets a copy below.
			ev.WorkerBusyNS, ev.WorkersUsed, ev.Straggler = es.WorkerBusyNS, used, es.StragglerRatio()
		}
		if p.view != nil {
			ev.ViewRefreshed, ev.ViewNS, ev.ViewDirtyFrac = true, r.View.Duration.Nanoseconds(), r.View.DirtyFraction()
			ev.ViewWritten, ev.ViewFull = r.View.Written, r.View.Full
		}
		if p.em != nil {
			st := p.em.Stats()
			ev.Epoch, ev.EpochPins = r.Epoch, st.Pins
			ev.EpochReclaimed, ev.EpochDropped = st.Reclaimed-p.lastEpoch.Reclaimed, st.Dropped-p.lastEpoch.Dropped
			p.lastEpoch = st
		}
		ev.DSEdgesIngested, ev.DSInserted, ev.DSScanSteps = r.DS.EdgesIngested, r.DS.Inserted, r.DS.ScanSteps
		ev.DSLockConflicts, ev.DSMetaOps, ev.DSImbalance = r.DS.LockConflicts, r.DS.MetaOps, r.DS.Imbalance()
		ev.DSTierPromotions, ev.DSTierDemotions = r.DS.TierPromotions, r.DS.TierDemotions
	}
	if p.tr != nil {
		ev.WorkerBusyNS = slices.Clone(ev.WorkerBusyNS)
		ev.Seq, ev.StartUnixNS, ev.DurNS, ev.Spans = p.traceSeq, p.traceStart.UnixNano(), int64(time.Since(p.traceStart)), p.spans
	}
	p.rec.RecordBatch(ev)
	p.tr.Record(ev)
}
