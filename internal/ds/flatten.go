package ds

import "sagabench/internal/graph"

// Flattener is an optional OneDir capability: bulk export of one vertex's
// adjacency for the compute-view layer (view.go). FlatFill writes v's
// neighbors into dst — in the store's own traversal order, exactly the
// order Neighbors would yield them — and reports the count written; dst
// always has at least Degree(v) capacity. Calls on distinct vertices run
// concurrently while no update is in flight (the view's parallel fill
// phase), the same read contract Neighbors already has.
type Flattener interface {
	FlatFill(v graph.NodeID, dst []graph.Neighbor) int
}

// RunFlattener is the zero-copy specialization for stores whose
// per-vertex adjacency already is one contiguous slice (AS, AC,
// hybrid): FlatRun hands out the backing storage directly so the view
// copies a run with a single memmove instead of element-wise appends.
// The returned slice is valid only until the next update.
type RunFlattener interface {
	Flattener
	FlatRun(v graph.NodeID) []graph.Neighbor
}

// DirtyExpander is an optional capability for stores whose neighbor
// iteration order for a vertex can be perturbed by updates to OTHER
// vertices — DAH's shared per-chunk Robin Hood table shifts slots on
// displacement and backward-shift deletion, reordering bystander runs.
// The view hands such a store the touched source vertices of a refresh
// and lets it mark every vertex whose run may have reordered, so runs
// copied from the previous mirror are guaranteed byte-identical to what
// a fresh fill would produce.
type DirtyExpander interface {
	ExpandDirty(touched []graph.NodeID, mark func(v graph.NodeID))
}

// FlatView is a Graph that additionally exposes a flat CSR of its
// topology. The compute kernels type-assert to it and iterate the
// index/adjacency arrays directly, skipping per-vertex interface
// dispatch and neighbor-buffer copies. snapshot.Frozen implements it
// trivially; ComputeView implements it for any dynamic structure whose
// stores implement Flattener.
type FlatView interface {
	Graph
	FlatCSR() *graph.CSR
}
