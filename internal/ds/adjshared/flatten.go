package adjshared

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// AS keeps one contiguous vector per vertex, so a reader can take the
// storage directly: FlatRun is zero-copy and FlatFill, the store's one
// per-vertex read, is a single memmove. No locks are needed — both run
// in the read phase, when no update is in flight.

// FlatRun implements ds.RunFlattener.
// saga:allow lockheld -- read-phase zero-copy handoff: no update is in flight (same contract as FlatFill).
func (s *store) FlatRun(v graph.NodeID) []graph.Neighbor { return s.adj[v] }

// FlatFill implements ds.OneDir.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	// saga:allow lockheld -- read-phase bulk copy: no update is in flight, the two-copy phase separation.
	return copy(dst, s.adj[v])
}

var _ ds.RewriteReporter = (*store)(nil)
