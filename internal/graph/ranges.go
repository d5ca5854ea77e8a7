package graph

import "sync"

// ForRanges splits [0,n) into up to `threads` contiguous equal ranges and
// runs fn on each in its own goroutine, blocking until all complete. A
// panic in any worker is captured and re-raised on the calling goroutine
// (first panic wins), matching compute.parallelRanges, so the poison-batch
// quarantine sees worker failures instead of the process dying.
func ForRanges(n, threads int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if threads <= 1 || n == 1 {
		fn(0, n)
		return
	}
	if threads > n {
		threads = n
	}
	per := (n + threads - 1) / threads
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
