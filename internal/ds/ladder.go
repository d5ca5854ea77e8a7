package ds

import "math/bits"

// The growth ladder: capacities come in four size classes per octave,
// 2^e + j·2^(e−2) for j = 0..3 — 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, …
// — so each class is at most 1.25× the one below it, and storage that
// grows by one class past a need holds over four fifths of what it can
// (a power-of-two ladder: half). Hybrid sizes its edge arrays and index
// tables on it, and the compute view the room it leaves behind a run that
// only grows (view.go). LadderMin is the smallest class.
const LadderMin = 8

// CapFor returns the capacity for n entries: the smallest ladder class
// ≥ n.
//
// saga:hotpath
func CapFor(n int) int {
	if n <= LadderMin {
		return LadderMin
	}
	// The class above n−1: its top three bits (1jj) rounded up by one
	// step of 2^(e−2); a carry out of 111 is the next octave's 2^(e+1).
	shift := bits.Len(uint(n-1)) - 3
	return ((n-1)>>shift + 1) << shift
}

// CoarseCapFor returns the smallest class ≥ n of every other rung of the
// ladder — 8, 12, 16, 24, 32, 48, …, two an octave (2^e and 1.5·2^e) —
// so storage sized by it and grown to its need holds between two thirds
// and all of what it can. Hybrid's index tables take these classes, and
// so does the room of a growing compute-view run.
func CoarseCapFor(n int) int {
	c := CapFor(n)
	// The rungs of an octave are 4, 5, 6, 7 times 2^(e−2); an odd one
	// steps up to the next, which past 7 is the next octave's 2^(e+1).
	if shift := bits.Len(uint(c)) - 3; (c>>shift)&1 != 0 {
		c += 1 << shift
	}
	return c
}
