package compute

import (
	"sync"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// This file is the kernel side of the compute-view layer: resolution of a
// graph's flat CSR mirror, an edge-balanced range partitioner so one hub
// vertex no longer serializes a round, and the range runner with its
// per-worker clock.

// flatCSROf resolves the zero-copy fast path: a graph exposing a flat CSR
// (ds.ComputeView or snapshot.Frozen) returns its index/adjacency arrays
// for direct iteration; every other graph returns nil and the kernels
// stay on the OutNeigh/InNeigh interface path.
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

// uniformCuts is the equal-count partition of [0,n) into at most
// `threads` ranges, expressed as cuts so callers can switch partitioners
// without duplicating the worker loop.
func uniformCuts(cuts []int, n, threads int) []int {
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

// parallelRanges runs fn(w, cuts[w], cuts[w+1]) for every range
// concurrently and blocks until all complete. A panic in any range is
// captured and re-raised on the calling goroutine after the join (first
// panic wins), so callers wrapping the compute phase in recover — the
// poison-batch quarantine — see worker failures instead of the process
// dying. Worker indices are dense, so fn can index per-worker state.
//
// The last range runs on the caller's goroutine and the join state is one
// allocation: a kernel that meets a barrier twice per iteration (FS
// PageRank's contribution and pull passes) pays one spawn and two
// allocations per pass at two workers.
func parallelRanges(cuts []int, fn func(w, lo, hi int)) {
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

// workerClock accumulates per-worker busy time across a phase's parallel
// rounds, feeding Stats.WorkerBusyNS and the straggler ratio. Plain (non
// atomic) stores are safe: each slot is written only by its own worker
// inside parallelRanges, and rounds join through the WaitGroup before the
// coordinator reads, so every access is ordered by happens-before edges
// the kernels already have.
type workerClock struct {
	busy []int64
}

// reset prepares `workers` zeroed slots, retaining capacity.
func (c *workerClock) reset(workers int) {
	for len(c.busy) < workers {
		c.busy = append(c.busy, 0)
	}
	c.busy = c.busy[:workers]
	for i := range c.busy {
		c.busy[i] = 0
	}
}

// add charges d to worker w. No-op before reset or for out-of-range w
// (sequential kernels never call it).
//
// saga:hotpath
func (c *workerClock) add(w int, d time.Duration) {
	if w >= 0 && w < len(c.busy) {
		c.busy[w] += int64(d)
	}
}
