package ds

import (
	"fmt"

	"sagabench/internal/graph"
)

// OneDirDeleter is the optional deletion extension of OneDir: concurrent
// removal of (src → dst) records using the store's own multithreading
// style. Deleting an absent edge is a no-op. Streaming deletions are the
// first extension the paper's framework anticipates (STINGER supports
// them natively); every bundled structure implements this interface.
type OneDirDeleter interface {
	DeleteEdges(edges []graph.Edge)
}

// Deleter is the Graph-level deletion API.
type Deleter interface {
	// Delete removes the batch's edges; absent edges are ignored. For
	// undirected graphs both orientations are removed.
	Delete(batch graph.Batch) error
}

// Delete implements Deleter for TwoCopy graphs whose stores support
// deletion.
func (t *TwoCopy) Delete(batch graph.Batch) error {
	if len(batch) == 0 {
		return nil
	}
	outDel, ok := t.out.(OneDirDeleter)
	if !ok {
		return fmt.Errorf("ds: %T does not support edge deletion", t.out)
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
		outDel.DeleteEdges(t.scratch)
		return nil
	}
	inDel, ok := t.in.(OneDirDeleter)
	if !ok {
		return fmt.Errorf("ds: %T does not support edge deletion", t.in)
	}
	outDel.DeleteEdges(t.scratch)
	// A store does not keep the slice it is handed, so the in direction
	// takes the same scratch, reversed in place.
	for i := range t.scratch {
		e := &t.scratch[i]
		e.Src, e.Dst = e.Dst, e.Src
	}
	inDel.DeleteEdges(t.scratch)
	return nil
}

// SupportsDelete reports whether g implements working edge deletion.
func SupportsDelete(g Graph) bool {
	t, ok := g.(*TwoCopy)
	if !ok {
		_, ok = g.(Deleter)
		return ok
	}
	if _, ok := t.out.(OneDirDeleter); !ok {
		return false
	}
	if t.directed {
		_, ok := t.in.(OneDirDeleter)
		return ok
	}
	return true
}
