// Package ds is a fixture stand-in for sagabench/internal/ds: just the
// chunk-parallel helper signature the chunkowner analyzer matches on.
package ds

// Edge mirrors graph.Edge closely enough for ownership fixtures.
type Edge struct {
	Src, Dst int
}

// GroupByChunk mirrors the real helper's shape (chunk worker closure).
func GroupByChunk(edges []Edge, chunks int, fn func(chunk int, edges []Edge)) {
	fn(0, edges)
}
