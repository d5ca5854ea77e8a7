package ds

import "testing"

// TestCoarseCapFor: CoarseCapFor(n) fits n, never falls as n grows, is a
// class of CapFor's ladder, and takes every other one of them — so each
// of its classes is at most 1.5× the one below it.
func TestCoarseCapFor(t *testing.T) {
	prev := 0
	for n := 0; n <= 1<<16; n++ {
		c := CoarseCapFor(n)
		if c < n || c < prev || CapFor(c) != c {
			t.Fatalf("CoarseCapFor(%d) = %d (CoarseCapFor(%d) = %d)", n, c, n-1, prev)
		}
		if c != prev && prev != 0 {
			if CapFor(prev+1) == c {
				t.Fatalf("CoarseCapFor steps from %d to the very next ladder class %d", prev, c)
			}
			if 2*c > 3*prev {
				t.Fatalf("CoarseCapFor steps from %d to %d, past 1.5×", prev, c)
			}
		}
		prev = c
	}
}
