package core

import (
	"errors"
	"fmt"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
)

// This file is the durability layer's attachment to the pipeline: opening
// and recovering the directory, what a failed durable stage leads to
// (quarantine, the degrade policy), the checkpoint body, and shutdown. The
// per-batch protocol — validate, WAL append, apply, maybe checkpoint —
// is the stage walk in batch.go. Construction and the post-poison rebuild
// share recoverDurable, so crash recovery is the ordinary startup path,
// not a special case.

// durState is the pipeline's durability attachment.
type durState struct {
	man       *durable.Manager
	meta      durable.PoisonMeta
	sinceCkpt int // applied batches since the last checkpoint

	// suspended: the WAL failed permanently under a "degrade" policy;
	// batches keep applying in memory, nothing more is logged.
	// ckptSuspended: checkpointing failed permanently; the WAL (if not
	// itself suspended) keeps the batches recoverable, just from an older
	// snapshot. Both are one-way — the degrade machinery never un-fails.
	suspended     bool
	ckptSuspended bool
}

// errFenced is returned by durable operations on a pipeline the
// supervisor has superseded: the rebuilt instance owns the WAL and
// checkpoint files now.
var errFenced = errors.New("core: pipeline fenced (superseded by a supervised rebuild)")

// initDurable opens the durability directory and recovers its contents.
func (p *Pipeline) initDurable(cfg durable.Config) error {
	man, err := durable.Open(cfg, p.rec)
	if err != nil {
		return err
	}
	p.dur = &durState{man: man, meta: durable.PoisonMeta{
		Directed: p.pcfg.Directed,
		Threads:  p.pcfg.Threads,
		DS:       p.pcfg.DataStructure,
		Alg:      p.pcfg.Algorithm,
		Model:    p.pcfg.Model,
		Source:   p.pcfg.Compute.Source,
	}}
	return p.recoverDurable()
}

// recoverDurable rebuilds the in-memory state from disk: fresh
// components, newest valid checkpoint, then WAL tail replay. A record
// that fails to replay (a poison batch logged before a crash) is
// tombstoned and quarantined, and the loop restarts — each pass
// permanently skips one record, so it terminates.
func (p *Pipeline) recoverDurable() error {
	for {
		cp, tail, err := p.dur.man.Recover()
		if err != nil {
			return err
		}
		if err := p.resetComponents(); err != nil {
			return err
		}
		if err := p.restoreCheckpoint(cp); err != nil {
			return err
		}
		replayedAll := true
		for _, r := range tail {
			if crash := p.dur.man.Config().Crash; crash != nil {
				crash(durable.CrashMidReplay)
			}
			if _, err := p.runBatch(MixedBatch{Adds: r.Adds, Dels: r.Dels}, r.Seq, true); err != nil {
				return err
			}
			if p.batch.Quarantined != "" {
				replayedAll = false
				break
			}
		}
		if !replayedAll {
			continue
		}
		// Attribute recovery's ingestion to recovery, not to the next
		// batch's record.
		p.g.(*ds.TwoCopy).TakeProfile(&ds.UpdateProfile{})
		return nil
	}
}

// resetComponents replaces the data structure and engine with fresh ones
// built from the original configuration.
func (p *Pipeline) resetComponents() error {
	g, engine, err := buildComponents(p.pcfg)
	if err != nil {
		return err
	}
	p.g, p.engine = g, engine
	// The old view mirrors the discarded structure; a fresh one is unbuilt
	// and full-builds on the first post-recovery Refresh, which sees the
	// checkpoint-restored topology (restoreCheckpoint writes the structure
	// directly, bypassing apply and therefore the mirror).
	p.initView()
	if p.em != nil {
		// The old view's arena and index buffers went with it, so no
		// refresh will ever write under the snapshots already published:
		// stop gating on the spare. They stay pinned and intact, their
		// arrays and property vectors the GC's now.
		p.em.ForgetSpare()
		p.latestVals, p.spareVals, p.latestGen, p.spareGen = nil, nil, 0, 0
	}
	return nil
}

// restoreCheckpoint rebuilds adjacency and engine state from a snapshot
// (nil = empty directory, nothing to restore).
func (p *Pipeline) restoreCheckpoint(cp *durable.Checkpoint) error {
	if cp == nil {
		return nil
	}
	if cp.Directed != p.pcfg.Directed {
		return fmt.Errorf("core: checkpoint directedness %v does not match pipeline config %v",
			cp.Directed, p.pcfg.Directed)
	}
	const chunk = 4096
	for lo := 0; lo < len(cp.Edges); lo += chunk {
		hi := lo + chunk
		if hi > len(cp.Edges) {
			hi = len(cp.Edges)
		}
		p.g.Update(graph.Batch(cp.Edges[lo:hi]))
	}
	// NumNodes is "1 + highest vertex ever ingested" and never shrinks,
	// but deletions can leave the highest vertex edgeless — absent from
	// the exported adjacency. Touch it with a self-loop insert+delete so
	// the recovered vertex count (which sizes every property array)
	// matches the checkpoint. Deletion matches on (src,dst), so the probe
	// edge cannot disturb real adjacency: if the vertex had edges we
	// would not be here.
	if cp.NumNodes > 0 && p.g.NumNodes() < cp.NumNodes {
		probe := graph.Batch{{Src: graph.NodeID(cp.NumNodes - 1), Dst: graph.NodeID(cp.NumNodes - 1)}}
		p.g.Update(probe)
		if d, ok := p.g.(ds.Deleter); ok {
			if err := d.Delete(probe); err != nil {
				return err
			}
		}
	}
	if p.g.NumNodes() != cp.NumNodes {
		return fmt.Errorf("core: restored %d vertices, checkpoint has %d", p.g.NumNodes(), cp.NumNodes)
	}
	if cp.Engine != nil {
		st, ok := p.engine.(compute.Stateful)
		if !ok {
			return fmt.Errorf("core: checkpoint carries engine state but %s/%s cannot restore it",
				p.engine.Name(), p.engine.Model())
		}
		st.RestoreState(*cp.Engine)
	}
	return nil
}

// durableFault routes the failure of a durable stage (already classified
// and retried by internal/durable) through the degrade policy: nil when
// the pipeline absorbed the fault and the batch goes on, else the error to
// surface. An absorbed WAL fault leaves the batch to apply unlogged under
// "degrade" and refuses it under "read-only"; a checkpoint fault finds the
// batch already logged and applied, so both let it succeed and only stop
// future checkpoints (the WAL keeps the state recoverable). A fenced
// instance routes nothing: its handles were abandoned under it, which is
// no disk fault, and the health machine belongs to its replacement now.
func (p *Pipeline) durableFault(id StageID, err error) error {
	if p.fenced.Load() {
		return errFenced
	}
	op := "checkpoint"
	if id == StageWAL {
		op = "wal-append"
	}
	target := p.pcfg.DegradePolicy.target()
	p.health.To(target, fmt.Sprintf("%s: %v", op, err))
	switch {
	case target == Failed:
		return err
	case id == StageWAL && target == ReadOnly:
		p.health.NoteRefused()
		return ErrReadOnly
	}
	if id == StageWAL {
		p.dur.suspended = true
	}
	p.dur.ckptSuspended = true
	return nil
}

// quarantine sets the in-flight batch aside as a replayable .poison file,
// tombstoning its sequence number in the WAL first when it has one. The
// error is the quarantine's own I/O failing.
func (p *Pipeline) quarantine(cause error) error {
	if p.fenced.Load() {
		return errFenced
	}
	seq := p.batch.WALSeq
	if seq > 0 {
		if err := p.dur.man.AppendSkip(seq); err != nil {
			return err
		}
	}
	path, err := p.dur.man.Quarantine(p.dur.meta, seq, cause.Error(), p.in.Adds, p.in.Dels)
	if err != nil {
		return err
	}
	p.poisoned = append(p.poisoned, path)
	p.batch.Quarantined = cause.Error()
	return nil
}

// writeDurableCheckpoint snapshots the current in-memory state at the
// last logged sequence number: the body of the checkpoint stage, and
// Close's final flush.
func (p *Pipeline) writeDurableCheckpoint() error {
	if p.fenced.Load() {
		return errFenced
	}
	cp := &durable.Checkpoint{
		Seq:      p.dur.man.LastSeq(),
		Directed: p.pcfg.Directed,
		NumNodes: p.g.NumNodes(),
		Edges:    ds.ExportEdgesParallel(p.g, p.pcfg.Threads),
	}
	if st, ok := p.engine.(compute.Stateful); ok {
		s := st.ExportState()
		cp.Engine = &s
	}
	if err := p.dur.man.WriteCheckpoint(cp); err != nil {
		return err
	}
	p.dur.sinceCkpt = 0
	return nil
}

// Close shuts the pipeline down: epoch publication stops (subsequent
// AcquireQuery calls fail; handles already pinned stay valid until
// released — their snapshots are immutable and outlive the pipeline),
// then the durability layer flushes: final checkpoint, then WAL close.
// A pipeline with neither has nothing to close.
func (p *Pipeline) Close() error {
	if p.em != nil {
		p.em.Close()
	}
	if p.dur == nil {
		return nil
	}
	if p.fenced.Load() {
		// A superseded instance must not flush through files the rebuilt
		// pipeline owns; the supervisor abandoned this one deliberately.
		return nil
	}
	var firstErr error
	if !p.dur.suspended && !p.dur.ckptSuspended {
		if err := p.writeDurableCheckpoint(); err != nil {
			firstErr = err
		}
	}
	if p.dur.suspended {
		// The WAL already failed permanently; a close-time fsync through
		// the same dead disk would only manufacture a second error.
		p.dur.man.Abandon()
	} else if err := p.dur.man.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// DurableSeq is the sequence number of the last durably logged batch (0
// without durability): a driver resuming a stream skips everything at or
// below it.
func (p *Pipeline) DurableSeq() uint64 {
	if p.dur == nil {
		return 0
	}
	return p.dur.man.LastSeq()
}

// PoisonFiles lists the quarantine files written by this pipeline
// instance, in order.
func (p *Pipeline) PoisonFiles() []string { return p.poisoned }

// Abandon drops the durability layer without flushing, as a kill would:
// no final checkpoint, no WAL fsync. The kill/recover harness uses it for
// file-handle hygiene on pipelines it crashes; production code wants
// Close.
func (p *Pipeline) Abandon() {
	if p.dur != nil {
		p.dur.man.Abandon()
	}
}
