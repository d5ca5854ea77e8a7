package stinger

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Stinger's adjacency is a chain of fixed-size edge blocks; there is no
// contiguous run to hand out, so its one read walks the chain once and
// copies each block's used slots, one bulk copy per block. Block chains
// only mutate under the vertex's own updates, so a chain untouched by a
// batch yields the identical slot order on every walk.

// FlatFill implements ds.OneDir.
func (s *store) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	n := 0
	for blk := s.heads[v].first.Load(); blk != nil; blk = blk.next.Load() {
		// saga:allow lockheld -- lock-free read-phase walk: flattening runs on the sealed read copy, never concurrently with ingestion.
		n += copy(dst[n:], blk.slots[:int(blk.used.Load())])
	}
	return n
}

var _ ds.OneDir = (*store)(nil)
