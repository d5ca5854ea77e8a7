package ds

import "sagabench/internal/graph"

// Deleter is the Graph-level deletion API.
type Deleter interface {
	// Delete removes the batch's edges; absent edges are ignored. For
	// undirected graphs both orientations are removed.
	Delete(batch graph.Batch) error
}

// Delete implements Deleter. Streaming deletions are the first extension
// the paper's framework anticipates (STINGER supports them natively);
// every store implements OneDir.DeleteEdges. The error is always nil.
func (t *TwoCopy) Delete(batch graph.Batch) error {
	if len(batch) == 0 {
		return nil
	}
	// Deletions never grow the vertex space, but endpoints past the
	// known space are harmless no-ops — clamp them out.
	n := t.out.NumNodes()
	t.scratch = t.scratch[:0]
	for _, e := range batch {
		if int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		t.scratch = append(t.scratch, e)
	}
	if len(t.scratch) == 0 {
		return nil
	}
	if !t.directed {
		for _, e := range t.scratch { // the range is over the clamped records only
			t.scratch = append(t.scratch, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
		}
		t.out.DeleteEdges(t.scratch)
		return nil
	}
	t.out.DeleteEdges(t.scratch)
	// A store does not keep the slice it is handed, so the in direction
	// takes the same scratch, reversed in place.
	for i := range t.scratch {
		e := &t.scratch[i]
		e.Src, e.Dst = e.Dst, e.Src
	}
	t.in.DeleteEdges(t.scratch)
	return nil
}
