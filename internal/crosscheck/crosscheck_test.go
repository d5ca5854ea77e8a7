package crosscheck

import (
	"slices"
	"strings"
	"testing"

	"sagabench/internal/graph"
)

func TestStreamDeterministic(t *testing.T) {
	cfg := StreamConfig{Seed: 42, Batches: 12, BatchSize: 150, NumNodes: 64, Directed: true, Deletes: true}
	a, b := NewStream(cfg), NewStream(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths %d/%d differ across same-seed runs", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Adds) != len(b[i].Adds) || len(a[i].Dels) != len(b[i].Dels) {
			t.Fatalf("step %d shapes differ", i)
		}
		for j := range a[i].Adds {
			if a[i].Adds[j] != b[i].Adds[j] {
				t.Fatalf("step %d add %d differs", i, j)
			}
		}
		for j := range a[i].Dels {
			if a[i].Dels[j] != b[i].Dels[j] {
				t.Fatalf("step %d del %d differs", i, j)
			}
		}
	}
	c := NewStream(StreamConfig{Seed: 43, Batches: 12, BatchSize: 150, NumNodes: 64, Directed: true, Deletes: true})
	same := len(a) == len(c)
	if same {
	outer:
		for i := range a {
			if len(a[i].Adds) != len(c[i].Adds) {
				same = false
				break
			}
			for j := range a[i].Adds {
				if a[i].Adds[j] != c[i].Adds[j] {
					same = false
					break outer
				}
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestStreamDeleteWeightsMatchLiveEdges asserts the generator's invariant
// that a deletion of a present edge carries the weight that edge holds at
// delete time (trimming correctness depends on it).
func TestStreamDeleteWeightsMatchLiveEdges(t *testing.T) {
	for _, directed := range []bool{true, false} {
		stream := NewStream(StreamConfig{Seed: 7, Batches: 30, BatchSize: 200, NumNodes: 48, Directed: directed, Deletes: true})
		o := graph.NewOracle(directed)
		for i, step := range stream {
			o.Update(step.Adds)
			for _, d := range step.Dels {
				cur := o.Out(d.Src)
				for _, nb := range cur {
					if nb.ID == d.Dst && nb.Weight != d.Weight {
						t.Fatalf("step %d: delete (%d,%d) weight %v, live edge holds %v",
							i, d.Src, d.Dst, d.Weight, nb.Weight)
					}
				}
			}
			o.Delete(step.Dels)
		}
	}
}

func TestMinimizePanicsOnPassingStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Minimize accepted a passing stream")
		}
	}()
	Minimize(Stream{{}}, func(Stream) bool { return false })
}

func TestMinimizeSyntheticPredicate(t *testing.T) {
	// Failure iff the stream contains edge (7,8) and (3,4) in any steps:
	// minimization must converge to exactly those two edges.
	stream := NewStream(StreamConfig{Seed: 21, Batches: 6, BatchSize: 100, NumNodes: 30, Directed: true})
	stream[1].Adds = append(stream[1].Adds, graph.Edge{Src: 7, Dst: 8, Weight: 1})
	stream[4].Adds = append(stream[4].Adds, graph.Edge{Src: 3, Dst: 4, Weight: 1})
	has := func(s Stream, src, dst graph.NodeID) bool {
		for _, st := range s {
			for _, e := range st.Adds {
				if e.Src == src && e.Dst == dst {
					return true
				}
			}
		}
		return false
	}
	min := Minimize(stream, func(s Stream) bool {
		return has(s, 7, 8) && has(s, 3, 4)
	})
	adds, dels := min.NumEdges()
	if adds != 2 || dels != 0 {
		t.Fatalf("minimized to %d adds %d dels, want exactly 2 adds", adds, dels)
	}
	if !has(min, 7, 8) || !has(min, 3, 4) {
		t.Fatalf("minimized stream lost the trigger edges: %+v", min)
	}
}

func TestParseReproRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a repro\n",
		"sagafuzz repro v1\n",                    // no ds
		"sagafuzz repro v1\nds dah\nadd 1 2 3\n", // add before batch
		"sagafuzz repro v1\nds dah\nbatch\nadd 1 2\n",          // short edge
		"sagafuzz repro v1\nds dah\nbatch\nwat 1 2\n",          // unknown directive
		"sagafuzz repro v1\nds dah\nmodel warp\n",              // bad model
		"sagafuzz repro v1\nds dah\nbatch\nbatch\nthreads 2\n", // config after stream
	} {
		if _, err := ParseRepro(strings.NewReader(in)); err == nil {
			t.Errorf("ParseRepro accepted %q", in)
		}
	}
}

// TestFaultApply pins each planted defect's decisions: every add is
// judged, in stream order, against what the faulted stream has already
// delivered (deletions included), exactly as a structure with the defect
// would judge it against its own contents.
func TestFaultApply(t *testing.T) {
	e := func(src, dst graph.NodeID, w graph.Weight) graph.Edge {
		return graph.Edge{Src: src, Dst: dst, Weight: w}
	}
	stream := Stream{
		{Adds: graph.Batch{e(0, 1, 1), e(0, 2, 1), e(0, 1, 5), e(0, 3, 1)}},
		{Adds: graph.Batch{e(0, 4, 1), e(0, 2, 7)}, Dels: graph.Batch{e(0, 1, 5)}},
		{Adds: graph.Batch{e(0, 5, 1)}},
	}
	for _, tc := range []struct {
		spec FaultSpec
		want []graph.Batch
	}{
		{FaultSpec{Fault: FaultDropEdge, Src: 0, Dst: 2}, []graph.Batch{
			{e(0, 1, 1), e(0, 1, 5), e(0, 3, 1)}, {e(0, 4, 1)}, {e(0, 5, 1)}}},
		{FaultSpec{Fault: FaultDegreeCap, Cap: 2}, []graph.Batch{
			{e(0, 1, 1), e(0, 2, 1), e(0, 1, 5)}, {e(0, 2, 7)}, {e(0, 5, 1)}}},
		{FaultSpec{Fault: FaultStaleWeight}, []graph.Batch{
			{e(0, 1, 1), e(0, 2, 1), e(0, 3, 1)}, {e(0, 4, 1)}, {e(0, 5, 1)}}},
	} {
		got := tc.spec.Apply(stream, true)
		for i := range stream {
			if !slices.Equal(got[i].Adds, tc.want[i]) {
				t.Errorf("%s: step %d adds %v, want %v", tc.spec.Fault, i, got[i].Adds, tc.want[i])
			}
			if !slices.Equal(got[i].Dels, stream[i].Dels) {
				t.Errorf("%s: step %d dels %v, want them passed through", tc.spec.Fault, i, got[i].Dels)
			}
		}
	}
}
