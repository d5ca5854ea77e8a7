package ds

import "sagabench/internal/graph"

// CSRGraph presents a flat CSR as a Graph for reading, so any compute
// engine can run on it: the compute view embeds it over its mirror, and a
// pinned epoch (core.QueryHandle.Frozen) wraps its immutable CSR in one —
// temporal analytics on "the graph as of batch i", the multi-snapshot
// model the paper slates for a future SAGA-Bench version (Section II,
// footnote 1).
//
// Reads past the vertex space answer with nothing. Any other read of a
// direction the CSR's shape leaves out (graph.CSR.HasIn/HasOut) panics
// naming the shape rather than answer with stale or aliased data. Update
// panics: a CSR is read-only.
type CSRGraph struct {
	csr      graph.CSR
	directed bool // the compute view's is its source's
}

var _ FlatView = (*CSRGraph)(nil)

// NewCSRGraph wraps c, sharing its arrays. It reports Directed: a CSR
// stores explicit directed records (an undirected stream's were mirrored
// at ingest), so it reads as a directed graph with symmetric edges.
func NewCSRGraph(c graph.CSR) *CSRGraph {
	return &CSRGraph{csr: c, directed: true}
}

// Update implements Graph by refusing.
func (g *CSRGraph) Update(graph.Batch) {
	panic("ds: a CSRGraph is read-only")
}

// NumNodes implements Graph.
func (g *CSRGraph) NumNodes() int { return g.csr.NumNodes() }

// NumEdges implements Graph.
func (g *CSRGraph) NumEdges() int { return g.csr.NumEdges() }

// OutDegree implements Graph.
func (g *CSRGraph) OutDegree(v graph.NodeID) int {
	if int(v) >= g.NumNodes() {
		return 0
	}
	return g.csr.OutDegree(v)
}

// InDegree implements Graph.
func (g *CSRGraph) InDegree(v graph.NodeID) int {
	if int(v) >= g.NumNodes() {
		return 0
	}
	g.needIn()
	return g.csr.InDegree(v)
}

// OutNeigh implements Graph. On an in-only CSR, graph.CSR.Out panics
// naming the shape.
func (g *CSRGraph) OutNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if int(v) >= g.NumNodes() {
		return buf
	}
	return append(buf, g.csr.Out(v)...)
}

// InNeigh implements Graph. On an in-only CSR, whose in runs hold IDs
// only, graph.CSR.In panics naming the shape.
func (g *CSRGraph) InNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if int(v) >= g.NumNodes() {
		return buf
	}
	g.needIn()
	return append(buf, g.csr.In(v)...)
}

func (g *CSRGraph) needIn() {
	if !g.csr.HasIn() {
		panic("ds: in-adjacency read on an out-only CSR (see ComputeView.MirrorOutOnly)")
	}
}

// Directed implements Graph.
func (g *CSRGraph) Directed() bool { return g.directed }

// FlatCSR implements FlatView: the kernels iterate the arrays directly.
func (g *CSRGraph) FlatCSR() *graph.CSR { return &g.csr }
