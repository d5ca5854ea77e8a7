package ds

// saga:paniccapture — worker goroutines in this package must capture
// panics so the pipeline's poison-batch quarantine can recover them
// (enforced by sagavet; see internal/analysis).

import (
	"sync"

	"sagabench/internal/graph"
)

// ForEachShard splits edges into up to `threads` contiguous shards and runs
// fn on each shard in its own goroutine, blocking until all finish. It is
// the shared-style multithreading used by AS and Stinger: every worker may
// touch any vertex and relies on the structure's own locks.
//
// A panic in any worker is captured and re-raised on the caller (first
// panic wins) so the pipeline's poison-batch quarantine can recover it.
func ForEachShard(edges []graph.Edge, threads int, fn func(shard []graph.Edge)) {
	if threads <= 1 || len(edges) <= 1 {
		fn(edges)
		return
	}
	if threads > len(edges) {
		threads = len(edges)
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	per := (len(edges) + threads - 1) / threads
	for start := 0; start < len(edges); start += per {
		end := start + per
		if end > len(edges) {
			end = len(edges)
		}
		wg.Add(1)
		go func(sh []graph.Edge) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			fn(sh)
		}(edges[start:end])
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// GroupByChunk buckets the edges of a batch by source-vertex chunk
// (chunk = src mod chunks) and runs fn(chunk, edges) for each non-empty
// bucket in its own goroutine. This is the chunked-style multithreading of
// AC and DAH: a chunk is owned by exactly one worker, so intra-chunk
// ingestion needs no locks. Bucket contents preserve batch order, keeping
// ingestion order deterministic per chunk.
func GroupByChunk(edges []graph.Edge, chunks int, fn func(chunk int, edges []graph.Edge)) {
	if chunks <= 1 {
		fn(0, edges)
		return
	}
	if len(edges) == 0 {
		return
	}
	// Counting-sort the batch into one backing array: bucket c occupies
	// backing[start[c]:start[c+1]], filled in batch order.
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
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	// Spawn workers for all non-empty buckets but the last, which runs on
	// the caller's goroutine — for the common two-chunk case that halves
	// the spawn/schedule cost per batch.
	last := -1
	for c := chunks - 1; c >= 0; c-- {
		if start[c+1] > start[c] {
			last = c
			break
		}
	}
	for c := 0; c < last; c++ {
		b := backing[start[c]:start[c+1]]
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		go func(c int, b []graph.Edge) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			fn(c, b)
		}(c, b)
	}
	if last >= 0 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			fn(last, backing[start[last]:start[last+1]])
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// ChunkOf reports the chunk owning vertex v under the modulo partition.
func ChunkOf(v graph.NodeID, chunks int) int {
	if chunks <= 1 {
		return 0
	}
	return int(v) % chunks
}
