// Package snapshot runs analytics on a frozen topology, the multi-snapshot
// model the paper slates for a future SAGA-Bench version (Section II,
// footnote 1): Freeze adapts an immutable CSR to the ds.Graph API so any
// compute engine can run a full algorithm on it. The history itself is
// the pipeline's: a core.QueryHandle keeps its published epoch intact for
// as long as it is held, and QueryHandle.Frozen hands that epoch's CSR to
// Freeze (see examples/temporal).
package snapshot

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Frozen adapts a CSR snapshot to the ds.Graph API so the compute engines
// can run any of the six algorithms on a historical topology (temporal
// analytics — "what was the PageRank three batches ago?"). The adapter is
// read-only: Update panics, because a snapshot is immutable by definition.
type Frozen struct {
	csr *graph.CSR
}

var _ ds.Graph = (*Frozen)(nil)

// Freeze wraps a CSR snapshot.
func Freeze(c *graph.CSR) *Frozen { return &Frozen{csr: c} }

// Update implements ds.Graph by refusing: snapshots are immutable.
func (f *Frozen) Update(graph.Batch) {
	panic("snapshot: a frozen snapshot cannot be updated")
}

// NumNodes implements ds.Graph.
func (f *Frozen) NumNodes() int { return f.csr.NumNodes() }

// NumEdges implements ds.Graph.
func (f *Frozen) NumEdges() int { return f.csr.NumEdges() }

// OutDegree implements ds.Graph.
func (f *Frozen) OutDegree(v graph.NodeID) int {
	if int(v) >= f.csr.NumNodes() {
		return 0
	}
	return f.csr.OutDegree(v)
}

// InDegree implements ds.Graph.
func (f *Frozen) InDegree(v graph.NodeID) int {
	if int(v) >= f.csr.NumNodes() {
		return 0
	}
	return f.csr.InDegree(v)
}

// OutNeigh implements ds.Graph.
func (f *Frozen) OutNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if int(v) >= f.csr.NumNodes() {
		return buf
	}
	return append(buf, f.csr.Out(v)...)
}

// InNeigh implements ds.Graph.
func (f *Frozen) InNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if int(v) >= f.csr.NumNodes() {
		return buf
	}
	return append(buf, f.csr.In(v)...)
}

// Directed implements ds.Graph. The CSR always stores explicit directed
// records (undirected inputs were mirrored at ingest), so the snapshot
// reads as a directed view with symmetric edges.
func (f *Frozen) Directed() bool { return true }

// FlatCSR implements ds.FlatView: a frozen snapshot already is flat, so
// the compute kernels iterate its arrays directly — the trivial case of
// the compute-view layer, with no refresh to maintain.
func (f *Frozen) FlatCSR() *graph.CSR { return f.csr }

var _ ds.FlatView = (*Frozen)(nil)
