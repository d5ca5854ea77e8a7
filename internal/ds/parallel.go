package ds

// saga:paniccapture — worker goroutines in this package must capture
// panics so the pipeline's poison-batch quarantine can recover them
// (enforced by sagavet; see internal/analysis). The package starts none
// of its own: every parallel region runs through graph.ParallelRanges.

import "sagabench/internal/graph"

// GroupByChunk buckets the edges of a batch by source-vertex chunk
// (chunk = src mod chunks) and runs fn(chunk, edges) for each non-empty
// bucket, one range of graph.ParallelRanges per chunk. This is the
// chunked-style multithreading of AC, DAH and hybrid: a chunk is owned by
// exactly one worker, so intra-chunk ingestion needs no locks. Bucket
// contents preserve batch order, keeping ingestion order deterministic per
// chunk. A panic in a bucket surfaces on the caller after the join. (The
// shared style of AS and Stinger needs no helper: any worker may touch
// any vertex, so they run graph.UniformCuts of the batch.)
func GroupByChunk(edges []graph.Edge, chunks int, fn func(chunk int, edges []graph.Edge)) {
	if chunks <= 1 {
		fn(0, edges)
		return
	}
	if len(edges) == 0 {
		return
	}
	// Counting-sort the batch into one backing array: bucket c occupies
	// backing[start[c]:start[c+1]], filled in batch order — start is the
	// cuts array the ranges run over.
	start := make([]int, chunks+1)
	for _, e := range edges {
		start[int(e.Src)%chunks+1]++
	}
	for c := 0; c < chunks; c++ {
		start[c+1] += start[c]
	}
	backing := make([]graph.Edge, len(edges))
	cursor := make([]int, chunks)
	copy(cursor, start[:chunks])
	for _, e := range edges {
		c := int(e.Src) % chunks
		backing[cursor[c]] = e
		cursor[c]++
	}
	graph.ParallelRanges(start, func(c, lo, hi int) {
		if lo < hi {
			fn(c, backing[lo:hi])
		}
	})
}

// ChunkOf reports the chunk owning vertex v under the modulo partition.
func ChunkOf(v graph.NodeID, chunks int) int {
	if chunks <= 1 {
		return 0
	}
	return int(v) % chunks
}
