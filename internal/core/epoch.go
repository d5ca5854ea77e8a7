package core

import (
	"errors"
	"fmt"

	"sagabench/internal/ds"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
	"sagabench/internal/snapshot"
)

// This file is the reader side of non-blocking queries: the QueryHandle
// surface readers use to consume pinned epochs concurrently with the
// update phase. Per-batch publication is the publish stage (batch.go);
// the protocol itself lives in internal/epoch.

// Epochs exposes the epoch manager (nil when ServeQueries is off) for
// callers that need the raw pin protocol or its counters; most readers
// want AcquireQuery.
func (p *Pipeline) Epochs() *epoch.Manager { return p.em }

// ErrNoEpoch is returned by AcquireQuery before the first batch has been
// published and after the pipeline is closed.
var ErrNoEpoch = errors.New("core: no published epoch available (no batch processed yet, or pipeline closed)")

// ErrQueriesOff is returned by AcquireQuery on a pipeline built without
// PipelineConfig.ServeQueries.
var ErrQueriesOff = errors.New("core: queries not enabled (set PipelineConfig.ServeQueries)")

// AcquireQuery pins the latest published epoch and returns a read handle.
// Safe to call from any goroutine, concurrently with the update phase:
// acquiring never blocks the writer, and the snapshot behind the handle
// stays immutable until Release no matter how far the stream advances.
// The caller must Release the handle; holding it only delays buffer
// reuse, never publication.
//
// saga:pin
func (p *Pipeline) AcquireQuery() (*QueryHandle, error) {
	if p.em == nil {
		return nil, ErrQueriesOff
	}
	s := p.em.Pin()
	if s == nil {
		p.rec.RecordQueryMiss()
		return nil, ErrNoEpoch
	}
	return &QueryHandle{p: p, s: s}, nil
}

// QueryHandle is a pinned read session against one published epoch: a
// consistent point-in-time view of the topology and the algorithm's
// property vector as of one batch boundary. A handle is cheap (one
// refcount increment) and single-goroutine; concurrent readers each pin
// their own. Adjacency slices returned by Out/In alias the snapshot and
// are valid until Release.
type QueryHandle struct {
	p     *Pipeline
	s     *epoch.Snapshot
	reads uint64
}

// Epoch is the pinned publication number (1-based).
func (h *QueryHandle) Epoch() uint64 { return h.s.Epoch }

// Batch is the 0-based batch index whose application the pinned epoch
// reflects.
func (h *QueryHandle) Batch() int { return h.s.Batch }

// Staleness is the number of batches published since this handle pinned
// its epoch — 0 means the handle still reads the latest state. It grows
// while the handle is held; that is the non-blocking bargain: readers get
// immutability, writers get progress, staleness measures the gap.
func (h *QueryHandle) Staleness() uint64 {
	latest := h.p.em.LatestEpoch()
	if latest <= h.s.Epoch {
		return 0
	}
	return latest - h.s.Epoch
}

// NumNodes reports the pinned vertex count.
func (h *QueryHandle) NumNodes() int { h.reads++; return h.s.NumNodes() }

// NumEdges reports the pinned directed edge count.
func (h *QueryHandle) NumEdges() int { h.reads++; return h.s.NumEdges() }

// OutDegree reports v's out-degree at the pinned epoch.
func (h *QueryHandle) OutDegree(v graph.NodeID) int { h.reads++; return h.s.OutDegree(v) }

// InDegree reports v's in-degree at the pinned epoch.
func (h *QueryHandle) InDegree(v graph.NodeID) int { h.reads++; return h.s.InDegree(v) }

// Out returns v's out-neighborhood at the pinned epoch. The slice aliases
// the snapshot: read-only, valid until Release.
func (h *QueryHandle) Out(v graph.NodeID) []graph.Neighbor { h.reads++; return h.s.Out(v) }

// In returns v's in-neighborhood at the pinned epoch (same aliasing).
func (h *QueryHandle) In(v graph.NodeID) []graph.Neighbor { h.reads++; return h.s.In(v) }

// HasEdge reports whether src→dst existed at the pinned epoch, with its
// stored weight.
func (h *QueryHandle) HasEdge(src, dst graph.NodeID) (graph.Weight, bool) {
	h.reads++
	return h.s.HasEdge(src, dst)
}

// Value returns v's algorithm property value at the pinned epoch (false
// beyond the vertex space).
func (h *QueryHandle) Value(v graph.NodeID) (float64, bool) { h.reads++; return h.s.Value(v) }

// Values exposes the whole pinned property vector (read-only, valid until
// Release).
func (h *QueryHandle) Values() []float64 { h.reads++; return h.s.Values }

// Snapshot exposes the pinned snapshot for structural checks
// (CheckConsistent, Fingerprint) and bulk array access.
func (h *QueryHandle) Snapshot() *epoch.Snapshot { return h.s }

// Frozen adapts the pinned topology to ds.Graph (internal/snapshot), so
// any compute engine can run a full algorithm on the pinned epoch —
// temporal analytics on a consistent historical view, concurrent with
// ingest: a held handle is how a caller keeps "the graph as of batch i".
func (h *QueryHandle) Frozen() ds.Graph { h.reads++; return snapshot.Freeze(&h.s.CSR) }

// Release unpins the epoch and records the session's telemetry (query
// count, final staleness). Must be called exactly once; the handle is
// dead afterwards.
//
// saga:pinrelease
func (h *QueryHandle) Release() {
	if h.s == nil {
		return
	}
	stale := h.Staleness()
	h.p.em.Release(h.s)
	h.s = nil
	h.p.rec.RecordQuerySession(h.reads, stale)
}

// ReleaseChecked verifies the pinned snapshot's structural invariants
// before releasing — the hook the concurrency battery uses to assert no
// torn epoch was ever observable. Plain Release skips the O(V+E) check.
//
// saga:pinrelease
func (h *QueryHandle) ReleaseChecked() error {
	if h.s == nil {
		return fmt.Errorf("core: ReleaseChecked on a released handle")
	}
	err := h.s.CheckConsistent()
	h.Release()
	return err
}
