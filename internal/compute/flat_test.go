package compute

import (
	"sync/atomic"
	"testing"
)

// TestParallelRangesCoverage: under both partitioners every index of
// [0,n) is visited exactly once, worker indices are dense, and an empty
// domain runs nothing.
func TestParallelRangesCoverage(t *testing.T) {
	const n = 37
	skewed := func(i int) int64 { return int64(i % 5 * i) } // zero-weight items and one heavy tail
	for _, threads := range []int{1, 3, 8, 100} {
		for name, cuts := range map[string][]int{
			"uniform":  uniformCuts(nil, n, threads),
			"balanced": balancedCuts(nil, n, threads, skewed),
		} {
			k := len(cuts) - 1
			if k < 1 || k > threads || cuts[0] != 0 || cuts[k] != n {
				t.Fatalf("%s threads=%d: cuts %v", name, threads, cuts)
			}
			seen := make([]atomic.Int32, n)
			workers := make([]atomic.Int32, k)
			parallelRanges(cuts, func(w, lo, hi int) {
				workers[w].Add(1)
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("%s threads=%d: index %d visited %d times", name, threads, i, c)
				}
			}
			for w := range workers {
				if c := workers[w].Load(); c != 1 {
					t.Fatalf("%s threads=%d: worker %d ran %d ranges", name, threads, w, c)
				}
			}
		}
	}
	for name, cuts := range map[string][]int{"uniform": uniformCuts(nil, 0, 4), "balanced": balancedCuts(nil, 0, 4, skewed)} {
		parallelRanges(cuts, func(w, lo, hi int) {
			if lo != hi {
				t.Errorf("%s: range [%d,%d) of an empty domain", name, lo, hi)
			}
		})
	}
}

// TestParallelRangesReraisesPanic: a panic in a spawned range, and one in
// the last range (which runs on the caller's goroutine), surfaces on the
// caller with its value — after the join, so every other range has run to
// completion. The poison-batch quarantine recovers exactly this.
func TestParallelRangesReraisesPanic(t *testing.T) {
	cuts := uniformCuts(nil, 40, 4)
	k := len(cuts) - 1
	for _, bad := range []int{0, k - 1} {
		var finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			parallelRanges(cuts, func(w, lo, hi int) {
				if w == bad {
					panic(w)
				}
				finished.Add(1)
			})
			return nil
		}()
		if got != bad {
			t.Errorf("range %d panicked, caller recovered %v", bad, got)
		}
		if n := int(finished.Load()); n != k-1 {
			t.Errorf("range %d panicked: %d of %d other ranges had finished when it surfaced", bad, n, k-1)
		}
	}
}
