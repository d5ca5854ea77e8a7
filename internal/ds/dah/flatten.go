package dah

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// FlatFill implements ds.OneDir: it drains whichever table owns the
// vertex — the dedicated high-degree table from the directory, or the
// chunk's shared Robin Hood table — in slot order, writing straight into
// dst.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	n := 0
	s.forEach(v, func(id graph.NodeID, w graph.Weight) {
		dst[n] = graph.Neighbor{ID: id, Weight: w}
		n++
	})
	return n
}

// ExpandDirty implements ds.DirtyExpander. The chunk's low-degree table
// is shared by every vertex of the chunk, and Robin Hood displacement on
// insert (and backward shift on delete) can move a bystander vertex's
// slots, changing its iteration order even though its adjacency set did
// not change. A run copied from the previous mirror would then diverge
// from a fresh drain, so any update landing in a chunk dirties the whole
// chunk: vertex v lives in chunk v mod chunks, interleaved with stride
// chunks.
func (s *store) ExpandDirty(touched []graph.NodeID, mark func(v graph.NodeID)) {
	seen := make([]bool, s.chunks)
	for _, v := range touched {
		c := int(v) % s.chunks
		if c < 0 || seen[c] {
			continue
		}
		seen[c] = true
		for u := c; u < s.numNodes; u += s.chunks {
			mark(graph.NodeID(u))
		}
	}
}

var _ ds.OneDir = (*store)(nil)
var _ ds.DirtyExpander = (*store)(nil)
