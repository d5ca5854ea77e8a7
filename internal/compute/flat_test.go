package compute

import (
	"sync/atomic"
	"testing"

	"sagabench/internal/graph"
)

// TestParallelRangesCoverage: the degree-prefix-sum cuts the rounds hand
// graph.ParallelRanges — zero-weight items and a heavy tail included —
// visit every index of [0,n) exactly once, with at most `threads` dense
// workers; an empty domain runs nothing.
func TestParallelRangesCoverage(t *testing.T) {
	const n = 37
	skewed := func(i int) int64 { return int64(i % 5 * i) }
	for _, threads := range []int{1, 3, 8, 100} {
		cuts := balancedCuts(nil, n, threads, skewed)
		k := len(cuts) - 1
		if k < 1 || k > threads || cuts[0] != 0 || cuts[k] != n {
			t.Fatalf("threads=%d: cuts %v", threads, cuts)
		}
		seen := make([]atomic.Int32, n)
		workers := make([]atomic.Int32, k)
		graph.ParallelRanges(cuts, func(w, lo, hi int) {
			workers[w].Add(1)
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, c)
			}
		}
		for w := range workers {
			if c := workers[w].Load(); c != 1 {
				t.Fatalf("threads=%d: worker %d ran %d ranges", threads, w, c)
			}
		}
	}
	graph.ParallelRanges(balancedCuts(nil, 0, 4, skewed), func(w, lo, hi int) {
		if lo != hi {
			t.Errorf("range [%d,%d) of an empty domain", lo, hi)
		}
	})
}
