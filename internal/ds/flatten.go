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

// RewriteReporter is an optional capability of the stores that keep each
// vertex's run in insertion order and append every new entry at its tail
// (AS, AC, hybrid, all of which lend their runs): a run then changes in
// one of two ways, by growing at its tail or by having an entry it held
// overwritten with a new weight or removed (a delete swaps in the last
// entry). The store reports the second kind; the compute view extends
// every other dirty run in place, copying only its new tail (view.go),
// instead of inferring anything from degrees.
type RewriteReporter interface {
	RunFlattener
	// TakeRewritten calls mark for every vertex whose run had an entry
	// overwritten with a new weight or removed since the previous call,
	// forgets them, and returns the call's number, counting from 1. The
	// first call starts the record-keeping, so its report is incomplete,
	// and from then on the store keeps one entry per such change until
	// the next call: only a caller that takes every report should start
	// it. A caller whose previous call was not number−1 shares the store
	// with another taker and must not trust the report. Called while no
	// update is in flight.
	TakeRewritten(mark func(v graph.NodeID)) uint64
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
