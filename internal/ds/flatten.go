package ds

import "sagabench/internal/graph"

// RunFlattener is the zero-copy capability of stores whose per-vertex
// adjacency already is one contiguous slice (AS, AC, hybrid): FlatRun
// hands out the backing storage directly, so TwoCopy can lend runs to
// readers (LendsRuns) instead of copying them out. The returned slice is
// valid only until the next update.
type RunFlattener interface {
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
// dispatch and neighbor-buffer copies. CSRGraph implements it over any
// CSR; ComputeView embeds one over its mirror of a TwoCopy structure.
type FlatView interface {
	Graph
	FlatCSR() *graph.CSR
}
