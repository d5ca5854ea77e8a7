package compute

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// This file is the kernel side of the compute-view layer: resolution of a
// graph's flat CSR mirror and an edge-balanced range partitioner so one hub
// vertex no longer serializes a round. The range runner is
// graph.ParallelRanges.

// flatCSROf resolves the zero-copy fast path: a graph exposing a flat CSR
// (ds.CSRGraph, and the ds.ComputeView that embeds it) returns its
// index/adjacency arrays for direct iteration; every other graph returns
// nil and the accessors read through the structure's interface.
func flatCSROf(g ds.Graph) *graph.CSR {
	if fv, ok := g.(ds.FlatView); ok {
		return fv.FlatCSR()
	}
	return nil
}

// balancedCuts splits [0,n) items into at most `threads` contiguous
// ranges of roughly equal summed weight, where item i weighs
// weight(i)+1 (the +1 keeps zero-degree items from collapsing into one
// range). cuts is reused as the destination; the result satisfies
// cuts[0] = 0, cuts[len-1] = n with len-1 <= threads ranges. This is the
// degree-prefix-sum partitioner: frontier rounds weight items by degree
// so a hub's edge volume is one worker's share, not appended to a
// uniform slice.
func balancedCuts(cuts []int, n, threads int, weight func(i int) int64) []int {
	cuts = append(cuts[:0], 0)
	if threads <= 1 || n <= 1 {
		if n < 0 {
			n = 0
		}
		return append(cuts, n)
	}
	var total int64
	for i := 0; i < n; i++ {
		total += weight(i) + 1
	}
	var acc int64
	for i := 0; i < n-1 && len(cuts) < threads; i++ {
		acc += weight(i) + 1
		// Cut k closes when the running sum reaches k/threads of the
		// total (integer cross-multiplied).
		if acc*int64(threads) >= total*int64(len(cuts)) {
			cuts = append(cuts, i+1)
		}
	}
	return append(cuts, n)
}
