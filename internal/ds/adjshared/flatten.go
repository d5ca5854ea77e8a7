package adjshared

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// AS keeps one contiguous vector per vertex, so the compute-view layer
// can take the storage directly: FlatRun is zero-copy and FlatFill is a
// single memmove. No locks are needed — flattening runs in the compute
// phase, when no update is in flight, the same contract Neighbors has.

// FlatRun implements ds.RunFlattener.
// saga:allow lockheld -- read-phase zero-copy handoff: no update is in flight (same contract as Neighbors).
func (s *store) FlatRun(v graph.NodeID) []graph.Neighbor { return s.adj[v] }

// FlatFill implements ds.OneDir.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	// saga:allow lockheld -- read-phase bulk copy: no update is in flight (same contract as Neighbors).
	return copy(dst, s.adj[v])
}

var _ ds.RunFlattener = (*store)(nil)
