package compute

import (
	"math"
	"sync"
	"testing"
)

func TestValuesRoundTrip(t *testing.T) {
	v := make(values, 4)
	v.set(0, 3.5)
	v.set(1, math.Inf(1))
	v.set(2, -0.25)
	if v.get(0) != 3.5 || !math.IsInf(v.get(1), 1) || v.get(2) != -0.25 || v.get(3) != 0 {
		t.Fatalf("round trip broken: %v %v %v %v", v.get(0), v.get(1), v.get(2), v.get(3))
	}
	out := v.materialize(nil)
	if len(out) != 4 || out[0] != 3.5 || !math.IsInf(out[1], 1) || out[2] != -0.25 || out[3] != 0 {
		t.Fatalf("materialize: %v", out)
	}
	// Reusing the destination buffer must not retain stale entries.
	v2 := make(values, 2)
	v2.set(0, 7)
	out = v2.materialize(out)
	if len(out) != 2 || out[0] != 7 {
		t.Fatalf("materialize reuse: %v", out)
	}
	// No values, no storage: both ends of the copy are empty or nil.
	if out := (values)(nil).materialize(nil); len(out) != 0 {
		t.Fatalf("materialize of nothing: %v", out)
	}
	if out = (values{}).materialize(out); len(out) != 0 {
		t.Fatalf("materialize of nothing into a buffer: %v", out)
	}
}

// TestValuesConcurrent verifies the atomic access discipline under the
// race detector: concurrent writers and readers on the same slots.
func TestValuesConcurrent(t *testing.T) {
	v := make(values, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.set(i%8, float64(w))
				_ = v.get((i + 3) % 8)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if x := v.get(i); x < 0 || x > 3 {
			t.Fatalf("slot %d holds torn value %v", i, x)
		}
	}
}

func TestPREpsilonScaling(t *testing.T) {
	// Explicit epsilon wins.
	if got := prEpsilon(Options{Epsilon: 1e-3}, 100); got != 1e-3 {
		t.Errorf("explicit epsilon ignored: %v", got)
	}
	// Default tracks 0.5/|V| (the paper's 1e-7 at |V|≈4.8M).
	if got := prEpsilon(Options{}, 5_000_000); math.Abs(got-1e-7) > 2e-8 {
		t.Errorf("paper-scale epsilon=%v want ~1e-7", got)
	}
	if got := prEpsilon(Options{}, 0); got != 1e-7 {
		t.Errorf("degenerate graph epsilon=%v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.threads() != 1 {
		t.Error("threads default")
	}
	if o.prTolerance() != 1e-4 {
		t.Error("PR tolerance default")
	}
	if o.prMaxIters() != 20 {
		t.Error("PR iteration default")
	}
	if o.delta() != 8 {
		t.Error("delta default")
	}
}
