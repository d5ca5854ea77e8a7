// Package paniccapture_fx exercises the goroutine panic-capture rule.
//
// saga:paniccapture
package paniccapture_fx

import "sync"

func captured(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				_ = r
			}
		}()
		work()
	}()
}

func uncaptured() {
	go func() { // want `goroutine does not capture panics`
		work()
	}()
}

func named() {
	go work() // want `goroutine launches a named function`
}

func audited() {
	go work() // saga:allow paniccapture -- worker is panic-free by construction.
}

// A suffix allow comment covers only its own line, never the next one.
func auditedSuffixNarrow() {
	_ = 0     // saga:allow paniccapture -- suffix comment; must not leak downward.
	go work() // want `goroutine launches a named function`
}

func work() {}
