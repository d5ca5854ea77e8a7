package adjchunked

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// AC's chunked ownership only matters during ingestion; the topology is
// the same per-vertex contiguous vector as AS, so flattening is
// zero-copy here too.

// FlatRun implements ds.RunFlattener.
func (s *store) FlatRun(v graph.NodeID) []graph.Neighbor { return s.adj[v] }

// FlatFill implements ds.OneDir.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	return copy(dst, s.adj[v])
}

var _ ds.RewriteReporter = (*store)(nil)
