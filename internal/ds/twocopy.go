package ds

import (
	"slices"

	"sagabench/internal/graph"
)

// OneDir is a single-direction adjacency store. Each SAGA-Bench data
// structure implements concurrent unique ingestion of (src → dst) records
// plus traversal; TwoCopy composes one or two OneDir stores into the full
// Graph API, implementing the paper's rule that directed graphs keep a
// second copy of the structure for in-neighbors (footnote 3) while
// undirected graphs ingest both orientations into a single store.
type OneDir interface {
	// EnsureNodes grows vertex-indexed state to cover IDs [0,n). It is
	// called while no concurrent ingestion is running.
	EnsureNodes(n int)
	// UpdateEdges concurrently ingests the records using the store's own
	// multithreading style. Every edge's endpoints are < NumNodes().
	UpdateEdges(edges []graph.Edge)
	// Degree reports the distinct neighbor count of v, 0 for v ≥
	// NumNodes().
	Degree(v graph.NodeID) int
	// NumEdges reports the distinct records stored.
	NumEdges() int
	// NumNodes reports the covered vertex-ID space.
	NumNodes() int
	// FlatFill is the store's one per-vertex read, behind TwoCopy's
	// OutNeigh/InNeigh, the compute-view layer (view.go) and the parallel
	// exporter: it writes v's Degree(v) neighbors into dst, which has room
	// for them, in the store's own traversal order, and reports the count
	// written. A vertex no update touched reads back in the same order.
	// Calls on distinct vertices run concurrently while no update is in
	// flight.
	FlatFill(v graph.NodeID, dst []graph.Neighbor) int
	// DeleteEdges concurrently removes the (src → dst) records using the
	// store's own multithreading style. Deleting an absent edge is a
	// no-op. Every edge's endpoints are < NumNodes().
	DeleteEdges(edges []graph.Edge)
	// TakeProfile adds the counts gathered since the previous call into
	// *into (see UpdateProfile.MoveTo) and zeroes them. It is called while
	// no update is in flight.
	TakeProfile(into *UpdateProfile)
}

// TwoCopy adapts OneDir stores to the Graph interface.
type TwoCopy struct {
	directed bool
	out      OneDir
	in       OneDir // nil when undirected
	scratch  []graph.Edge
	// outRuns and inRuns are the stores again when both hand out their
	// adjacency in place (RunFlattener); inRuns is outRuns when undirected.
	outRuns, inRuns RunFlattener
}

// NewTwoCopy wraps mk-constructed stores: two for a directed graph, one for
// an undirected graph.
func NewTwoCopy(directed bool, mk func() OneDir) *TwoCopy {
	t := &TwoCopy{directed: directed, out: mk()}
	if directed {
		t.in = mk()
	}
	if outRuns, ok := t.out.(RunFlattener); ok {
		inRuns := outRuns
		if directed {
			inRuns, ok = t.in.(RunFlattener)
		}
		if ok {
			t.outRuns, t.inRuns = outRuns, inRuns
		}
	}
	return t
}

// Update implements Graph.
func (t *TwoCopy) Update(batch graph.Batch) {
	if len(batch) == 0 {
		return
	}
	max, _ := batch.MaxNode()
	n := int(max) + 1
	t.out.EnsureNodes(n)
	if t.directed {
		t.in.EnsureNodes(n)
		t.out.UpdateEdges(batch)
		t.scratch = t.scratch[:0]
		for _, e := range batch {
			t.scratch = append(t.scratch, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
		}
		t.in.UpdateEdges(t.scratch)
		return
	}
	t.scratch = t.scratch[:0]
	t.scratch = append(t.scratch, batch...)
	for _, e := range batch {
		t.scratch = append(t.scratch, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	t.out.UpdateEdges(t.scratch)
}

// NumNodes implements Graph.
func (t *TwoCopy) NumNodes() int { return t.out.NumNodes() }

// NumEdges implements Graph.
func (t *TwoCopy) NumEdges() int { return t.out.NumEdges() }

// OutDegree implements Graph: one call into the store, whose Degree
// answers 0 past its vertex space.
func (t *TwoCopy) OutDegree(v graph.NodeID) int { return t.out.Degree(v) }

// InDegree implements Graph, as OutDegree.
func (t *TwoCopy) InDegree(v graph.NodeID) int { return t.InStore().Degree(v) }

// OutNeigh implements Graph.
func (t *TwoCopy) OutNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	return appendRun(t.out, v, buf)
}

// InNeigh implements Graph.
func (t *TwoCopy) InNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	return appendRun(t.InStore(), v, buf)
}

// appendRun appends v's neighbors in st to buf: it grows buf by v's degree
// and fills the new tail through FlatFill. A vertex past st's space has
// none.
func appendRun(st OneDir, v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if int(v) >= st.NumNodes() {
		return buf
	}
	n := len(buf)
	buf = slices.Grow(buf, st.Degree(v))
	return buf[:n+st.FlatFill(v, buf[n:cap(buf)])]
}

// LendsRuns reports whether OutRun and InRun are available: both stores
// keep every vertex's adjacency as one contiguous slice (AS, AC, hybrid),
// so a reader can walk it in place, as C++ SAGA-Bench iterates
// its AS/AC vectors, instead of copying it out through OutNeigh/InNeigh.
func (t *TwoCopy) LendsRuns() bool { return t.outRuns != nil }

// OutRun returns v's out-neighbors in OutNeigh's order as the store's own
// slice: read-only, and valid only until the next Update or Delete. It
// panics unless LendsRuns.
func (t *TwoCopy) OutRun(v graph.NodeID) []graph.Neighbor {
	if int(v) >= t.out.NumNodes() {
		return nil
	}
	return t.outRuns.FlatRun(v)
}

// InRun is OutRun for the in direction.
func (t *TwoCopy) InRun(v graph.NodeID) []graph.Neighbor {
	if int(v) >= t.InStore().NumNodes() {
		return nil
	}
	return t.inRuns.FlatRun(v)
}

// Directed implements Graph.
func (t *TwoCopy) Directed() bool { return t.directed }

// TakeProfile adds both stores' counts gathered since the previous call
// into *into and zeroes them; chunk loads are summed index-wise across the
// two copies.
func (t *TwoCopy) TakeProfile(into *UpdateProfile) {
	t.out.TakeProfile(into)
	if t.directed {
		t.in.TakeProfile(into)
	}
}

// OutStore exposes the underlying out-direction store; the architecture
// replayer uses it to walk the concrete memory layout.
func (t *TwoCopy) OutStore() OneDir { return t.out }

// InStore exposes the in-direction store (the out store when undirected).
func (t *TwoCopy) InStore() OneDir {
	if !t.directed {
		return t.out
	}
	return t.in
}
