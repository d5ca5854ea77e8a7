package hybrid

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Whatever the tier, a vertex's neighbors are one contiguous run (the
// inline record or the dense array), so flattening is zero-copy and no
// DirtyExpander is needed: updates to one vertex can never reorder
// another's run.

// FlatRun implements ds.RunFlattener; the slice is valid until the next
// update.
func (s *store) FlatRun(v graph.NodeID) []graph.Neighbor {
	if int(v) >= len(s.verts) {
		return nil
	}
	return s.verts[v].run()
}

// FlatFill implements ds.OneDir.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	return copy(dst, s.FlatRun(v))
}

var (
	_ ds.RewriteReporter = (*store)(nil)
	_ ds.Footprinter     = (*store)(nil)
)
