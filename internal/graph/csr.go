package graph

import "sort"

// CSR is a flat, read-only adjacency layout: each vertex's out-neighbors
// are one run of OutAdj and its in-neighbors one run of InAdj. The dynamic
// data structures stay the system of record in SAGA-Bench; a CSR is what
// the analytics side reads — the compute-view mirror (internal/ds),
// published epochs (internal/epoch), the frozen views analytics run on
// (internal/snapshot) and the oracle tests.
//
// Layout contract. OutSpans holds one begin/end pair per vertex — run v is
// OutAdj[OutSpans[v].Begin:OutSpans[v].End] — so a run may sit anywhere in
// its adjacency array. A contiguous build (BuildCSR, the export path)
// lays the runs back to back in vertex order, and the array then holds
// exactly the live records. The compute view
// (ds.ComputeView) is log-structured: runs a batch changed are appended at
// the tail of an append-only arena and only their spans are patched, so
// the array also holds superseded runs no span points at any more.
//
// A Span is the size of one classic CSR offset, so the index costs the
// same memory and a vertex's bounds share a cache line. Readers go through
// Out/In/OutDegree/InDegree and never assume adjacent runs or len(OutAdj)
// == NumEdges. What every producer guarantees: runs of distinct vertices
// do not overlap, and a record reachable through an index is never
// overwritten for as long as that index is — which is what lets a pinned
// epoch keep reading while the writer appends.
type CSR struct {
	OutSpans []Span // len = NumNodes
	OutAdj   []Neighbor
	InSpans  []Span // nil when the in direction is absent (HasIn)
	InAdj    []Neighbor
	// Edges is the number of live directed records: the sum of the out-run
	// lengths (len(OutAdj) in a contiguous build).
	Edges int
}

// Span addresses one run of an adjacency array: adj[Begin:End]. The
// 32-bit offsets keep a span as small as one contiguous offset; the arena
// they index is bounded accordingly (MaxSpanOffset).
type Span struct{ Begin, End uint32 }

// MaxSpanOffset is the largest adjacency offset a Span can hold.
const MaxSpanOffset uint64 = 1<<32 - 1

// Len is the run's record count.
func (s Span) Len() int { return int(s.End - s.Begin) }

// BuildCSR constructs a contiguous CSR with numNodes vertices from the
// edge list. Adjacency runs are sorted by neighbor ID for deterministic
// comparisons. Duplicate edges are preserved as given.
func BuildCSR(numNodes int, edges []Edge) *CSR {
	if uint64(len(edges)) > MaxSpanOffset {
		panic("graph: BuildCSR edge list holds more records than a Span can address")
	}
	c := &CSR{
		OutSpans: make([]Span, numNodes),
		InSpans:  make([]Span, numNodes),
		OutAdj:   make([]Neighbor, len(edges)),
		InAdj:    make([]Neighbor, len(edges)),
		Edges:    len(edges),
	}
	// Count degrees into End, turn them into back-to-back empty runs, then
	// let each placed record push its run's End forward.
	for _, e := range edges {
		c.OutSpans[e.Src].End++
		c.InSpans[e.Dst].End++
	}
	var outPos, inPos uint32
	for v := 0; v < numNodes; v++ {
		outDeg, inDeg := c.OutSpans[v].End, c.InSpans[v].End
		c.OutSpans[v] = Span{Begin: outPos, End: outPos}
		c.InSpans[v] = Span{Begin: inPos, End: inPos}
		outPos, inPos = outPos+outDeg, inPos+inDeg
	}
	for _, e := range edges {
		c.OutAdj[c.OutSpans[e.Src].End] = Neighbor{ID: e.Dst, Weight: e.Weight}
		c.OutSpans[e.Src].End++
		c.InAdj[c.InSpans[e.Dst].End] = Neighbor{ID: e.Src, Weight: e.Weight}
		c.InSpans[e.Dst].End++
	}
	for v := 0; v < numNodes; v++ {
		sortNeighbors(c.Out(NodeID(v)))
		sortNeighbors(c.In(NodeID(v)))
	}
	return c
}

func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].ID != ns[j].ID {
			return ns[i].ID < ns[j].ID
		}
		return ns[i].Weight < ns[j].Weight
	})
}

// NumNodes reports the vertex count.
func (c *CSR) NumNodes() int { return len(c.OutSpans) }

// NumEdges reports the live directed edge count.
func (c *CSR) NumEdges() int { return c.Edges }

// HasIn reports whether the in direction is present (an out-only compute
// view leaves it out).
func (c *CSR) HasIn() bool { return c.InSpans != nil }

// Out returns the out-adjacency run of v.
func (c *CSR) Out(v NodeID) []Neighbor {
	s := c.OutSpans[v]
	return c.OutAdj[s.Begin:s.End]
}

// In returns the in-adjacency run of v.
func (c *CSR) In(v NodeID) []Neighbor {
	s := c.InSpans[v]
	return c.InAdj[s.Begin:s.End]
}

// OutDegree reports len(Out(v)).
func (c *CSR) OutDegree(v NodeID) int { return c.OutSpans[v].Len() }

// InDegree reports len(In(v)).
func (c *CSR) InDegree(v NodeID) int { return c.InSpans[v].Len() }
