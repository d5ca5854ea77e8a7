package graph

import (
	"sync/atomic"
	"testing"
)

// TestParallelRangesCoverage: every index of [0,n) is visited exactly
// once, by at most `threads` dense workers, whether the cuts are uniform
// (the shared-style split of an edge batch, including one thread and more
// threads than items) or hand-made with empty ranges (a chunked batch
// whose buckets are not all populated); an empty domain runs nothing.
func TestParallelRangesCoverage(t *testing.T) {
	type input struct {
		name    string
		n       int
		threads int
		cuts    []int
	}
	var inputs []input
	for _, n := range []int{1, 3, 37, 103} {
		for _, threads := range []int{1, 3, 8, 16, 100} {
			inputs = append(inputs, input{"uniform", n, threads, UniformCuts(nil, n, threads)})
		}
	}
	inputs = append(inputs,
		input{"empty ranges", 10, 6, []int{0, 0, 4, 4, 9, 10, 10}},
		input{"all empty but one", 5, 4, []int{0, 0, 0, 5, 5}},
	)
	for _, in := range inputs {
		cuts := in.cuts
		k := len(cuts) - 1
		if k < 1 || k > in.threads || cuts[0] != 0 || cuts[k] != in.n {
			t.Fatalf("%s n=%d threads=%d: cuts %v", in.name, in.n, in.threads, cuts)
		}
		seen := make([]atomic.Int32, in.n)
		workers := make([]atomic.Int32, k)
		ParallelRanges(cuts, func(w, lo, hi int) {
			workers[w].Add(1)
			if lo != cuts[w] || hi != cuts[w+1] {
				t.Errorf("%s: worker %d got [%d,%d), cuts say [%d,%d)", in.name, w, lo, hi, cuts[w], cuts[w+1])
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("%s n=%d threads=%d: index %d visited %d times", in.name, in.n, in.threads, i, c)
			}
		}
		for w := range workers {
			if c := workers[w].Load(); c != 1 {
				t.Fatalf("%s n=%d threads=%d: worker %d ran %d ranges", in.name, in.n, in.threads, w, c)
			}
		}
	}
	ParallelRanges(UniformCuts(nil, 0, 4), func(w, lo, hi int) {
		if lo != hi {
			t.Errorf("range [%d,%d) of an empty domain", lo, hi)
		}
	})
}

// TestParallelRangesReraisesPanic: a panic in a spawned range, and one in
// the last range (which runs on the caller's goroutine), surfaces on the
// caller with its value — after the join, so every other range has run to
// completion. The poison-batch quarantine recovers exactly this.
func TestParallelRangesReraisesPanic(t *testing.T) {
	cuts := UniformCuts(nil, 40, 4)
	k := len(cuts) - 1
	for _, bad := range []int{0, k - 1} {
		var finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelRanges(cuts, func(w, lo, hi int) {
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
