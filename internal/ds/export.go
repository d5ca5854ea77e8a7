package ds

import (
	"fmt"
	"sort"

	"sagabench/internal/graph"
)

// Topology export and differential comparison: every Graph already exposes
// full traversal, so a complete, deterministic edge dump — and an
// exhaustive diff against the map-backed graph.Oracle — can be derived
// without per-structure hooks. The crosscheck harness and the equivalence
// tests both go through DiffOracle so a mismatch is reported identically
// everywhere.

// ExportEdges materializes g's distinct directed out-edges in (src, dst)
// order, the same canonical order graph.Oracle.Edges uses, so two exports
// (or an export and an oracle) can be compared slot by slot.
func ExportEdges(g Graph) []graph.Edge {
	var out []graph.Edge
	var buf []graph.Neighbor
	for v := 0; v < g.NumNodes(); v++ {
		buf = g.OutNeigh(graph.NodeID(v), buf[:0])
		sort.Slice(buf, func(i, j int) bool { return buf[i].ID < buf[j].ID })
		for _, nb := range buf {
			out = append(out, graph.Edge{Src: graph.NodeID(v), Dst: nb.ID, Weight: nb.Weight})
		}
	}
	return out
}

// ExportEdgesParallel is ExportEdges fanned out over threads, producing
// the identical canonical edge list: a parallel per-vertex degree count
// sizes one flat output array (the same count → prefix → fill shape the
// compute-view rebuild uses), then workers fill and sort disjoint vertex
// ranges through OutNeigh, whose FlatFill copies a run in bulk instead of
// appending it neighbor by neighbor. The durable checkpoint writer uses
// this; its full-adjacency snapshots were previously a single-threaded
// per-vertex sort scan.
func ExportEdgesParallel(g Graph, threads int) []graph.Edge {
	t, ok := g.(*TwoCopy)
	if !ok || threads <= 1 {
		return ExportEdges(g)
	}
	n := t.NumNodes()
	if n == 0 {
		return nil
	}
	out := t.OutStore()
	cuts := graph.UniformCuts(nil, n, threads)
	index := make([]int64, n+1)
	graph.ParallelRanges(cuts, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			index[v+1] = int64(out.Degree(graph.NodeID(v)))
		}
	})
	for v := 0; v < n; v++ {
		index[v+1] += index[v]
	}
	if index[n] == 0 {
		return nil
	}
	edges := make([]graph.Edge, index[n])
	graph.ParallelRanges(cuts, func(_, lo, hi int) {
		var buf []graph.Neighbor
		for v := lo; v < hi; v++ {
			buf = t.OutNeigh(graph.NodeID(v), buf[:0])
			sort.Slice(buf, func(i, j int) bool { return buf[i].ID < buf[j].ID })
			for i, nb := range buf {
				edges[int(index[v])+i] = graph.Edge{Src: graph.NodeID(v), Dst: nb.ID, Weight: nb.Weight}
			}
		}
	})
	return edges
}

// DiffOracle exhaustively compares g's topology against the oracle —
// vertex and edge counts, per-vertex in/out degrees, and both adjacency
// directions including weights — and returns human-readable mismatch
// descriptions. An empty result means the topologies are identical.
// maxDiffs caps the report length (0 means unlimited).
func DiffOracle(g Graph, o *graph.Oracle, maxDiffs int) []string {
	var diffs []string
	full := func() bool { return maxDiffs > 0 && len(diffs) >= maxDiffs }
	add := func(format string, args ...any) {
		if !full() {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	if g.NumNodes() != o.NumNodes() {
		add("NumNodes=%d want %d", g.NumNodes(), o.NumNodes())
	}
	if g.NumEdges() != o.NumEdges() {
		add("NumEdges=%d want %d", g.NumEdges(), o.NumEdges())
	}
	n := o.NumNodes()
	if gn := g.NumNodes(); gn < n {
		n = gn
	}
	var buf []graph.Neighbor
	for v := 0; v < n && !full(); v++ {
		id := graph.NodeID(v)
		if got, want := g.OutDegree(id), o.OutDegree(id); got != want {
			add("OutDegree(%d)=%d want %d", v, got, want)
		}
		if got, want := g.InDegree(id), o.InDegree(id); got != want {
			add("InDegree(%d)=%d want %d", v, got, want)
		}
		buf = g.OutNeigh(id, buf[:0])
		diffs = diffNeighborSets(diffs, maxDiffs, fmt.Sprintf("out(%d)", v), buf, o.Out(id))
		buf = g.InNeigh(id, buf[:0])
		diffs = diffNeighborSets(diffs, maxDiffs, fmt.Sprintf("in(%d)", v), buf, o.In(id))
	}
	return diffs
}

// diffNeighborSets appends mismatches between one vertex's adjacency and
// the oracle's, treating both as sets keyed by neighbor ID.
func diffNeighborSets(diffs []string, maxDiffs int, what string, got, want []graph.Neighbor) []string {
	full := func() bool { return maxDiffs > 0 && len(diffs) >= maxDiffs }
	add := func(format string, args ...any) []string {
		if !full() {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
		return diffs
	}
	m := make(map[graph.NodeID]graph.Weight, len(got))
	for _, nb := range got {
		if _, dup := m[nb.ID]; dup {
			diffs = add("%s: duplicate neighbor %d", what, nb.ID)
			continue
		}
		m[nb.ID] = nb.Weight
	}
	for _, nb := range want {
		if full() {
			return diffs
		}
		w, ok := m[nb.ID]
		if !ok {
			diffs = add("%s: missing neighbor %d", what, nb.ID)
			continue
		}
		if w != nb.Weight {
			diffs = add("%s: neighbor %d weight=%v want %v", what, nb.ID, w, nb.Weight)
		}
		delete(m, nb.ID)
	}
	for id := range m {
		if full() {
			return diffs
		}
		diffs = add("%s: extra neighbor %d", what, id)
	}
	return diffs
}
