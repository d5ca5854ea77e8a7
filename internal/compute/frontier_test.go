package compute

import (
	"sync"
	"testing"

	"sagabench/internal/graph"
)

// TestFrontierDrain: whatever the mark order and however often a vertex is
// marked, drain yields the set ascending and deduplicated, reuses dst, and
// leaves the frontier empty — at word boundaries, at vertex counts that
// are not a multiple of 64, and after concurrent marking.
func TestFrontierDrain(t *testing.T) {
	t.Run("sequential", testFrontierDrainSequential)
	t.Run("concurrent", testFrontierDrainConcurrent)
}

func testFrontierDrainSequential(t *testing.T) {
	for _, tc := range []struct {
		n     int
		marks []graph.NodeID
		want  []graph.NodeID
	}{
		{n: 1, marks: []graph.NodeID{0, 0}, want: []graph.NodeID{0}},
		{n: 64, marks: []graph.NodeID{63, 0, 63}, want: []graph.NodeID{0, 63}},
		{n: 65, marks: []graph.NodeID{64, 63}, want: []graph.NodeID{63, 64}},
		{n: 130, marks: []graph.NodeID{129, 128, 127, 64, 5, 64, 129}, want: []graph.NodeID{5, 64, 127, 128, 129}},
		{n: 200, marks: nil, want: nil},
	} {
		f := frontier(nil).sized(tc.n)
		if len(f) != (tc.n+63)/64 {
			t.Fatalf("n=%d: %d words", tc.n, len(f))
		}
		for i, v := range tc.marks {
			if i%2 == 0 {
				f.mark(v)
			} else {
				f.markAtomic(v)
			}
		}
		got := f.drain([]graph.NodeID{7, 7, 7}) // stale content of a reused list
		if len(got) != len(tc.want) {
			t.Fatalf("n=%d: drained %v, want %v", tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("n=%d: drained %v, want %v", tc.n, got, tc.want)
			}
		}
		if again := f.drain(got); len(again) != 0 {
			t.Fatalf("n=%d: second drain yields %v", tc.n, again)
		}
		if f.sized(tc.n + 64)[len(f)] != 0 {
			t.Fatalf("n=%d: sized grew a non-zero word", tc.n)
		}
	}
}

// testFrontierDrainConcurrent has four goroutines mark overlapping vertex
// sets that share every word, as the workers of a round do; run under
// -race. Every vertex must come out exactly once.
func testFrontierDrainConcurrent(t *testing.T) {
	const n = 1000
	f := frontier(nil).sized(n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < n; v++ {
				if v%4 == w || v%7 == w {
					f.markAtomic(graph.NodeID(v))
				}
			}
		}(w)
	}
	wg.Wait()
	got := f.drain(nil)
	if len(got) != n {
		t.Fatalf("drained %d vertices, want %d", len(got), n)
	}
	for v := range got {
		if got[v] != graph.NodeID(v) {
			t.Fatalf("position %d holds vertex %d", v, got[v])
		}
	}
}
