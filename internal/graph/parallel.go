package graph

import "sync"

// UniformCuts is the equal-count partition of [0,n) into at most `threads`
// contiguous ranges, written into cuts (reused as the destination):
// cuts[0] = 0, cuts[len-1] = n. It is the shared-style split of an update
// or delete batch (AS, Stinger) and of every vertex sweep that is not
// weighted by degree.
func UniformCuts(cuts []int, n, threads int) []int {
	cuts = append(cuts[:0], 0)
	if threads <= 1 || n <= 1 {
		if n < 0 {
			n = 0
		}
		return append(cuts, n)
	}
	if threads > n {
		threads = n
	}
	per := (n + threads - 1) / threads
	for lo := per; lo < n; lo += per {
		cuts = append(cuts, lo)
	}
	return append(cuts, n)
}

// ParallelRanges runs fn(w, cuts[w], cuts[w+1]) for every range
// concurrently and blocks until all complete. It is the one fork-join of
// the batch path: ingestion, deletion, view refresh, export and the
// compute rounds all run their parallel regions through it, so scheduling
// is a change in one place. Worker indices are dense, so fn can index
// per-worker state.
//
// A panic in any range is captured and re-raised on the calling goroutine
// after every range has finished (first panic wins), so callers wrapping
// a stage in recover — the poison-batch quarantine — see worker failures
// instead of the process dying.
//
// The last range runs on the caller's goroutine and the join state is one
// allocation; a single range is a direct call that allocates nothing.
func ParallelRanges(cuts []int, fn func(w, lo, hi int)) {
	k := len(cuts) - 1
	if k <= 0 {
		return
	}
	if k == 1 {
		fn(0, cuts[0], cuts[1])
		return
	}
	var join struct {
		wg       sync.WaitGroup
		once     sync.Once
		panicVal any
	}
	join.wg.Add(k - 1)
	for w := 0; w < k-1; w++ {
		go func(w int) {
			defer join.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					join.once.Do(func() { join.panicVal = r })
				}
			}()
			fn(w, cuts[w], cuts[w+1])
		}(w)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				join.once.Do(func() { join.panicVal = r })
			}
		}()
		fn(k-1, cuts[k-1], cuts[k])
	}()
	join.wg.Wait()
	if join.panicVal != nil {
		panic(join.panicVal)
	}
}
