package snapshot_test

import (
	"errors"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// The multi-snapshot history is the pipeline's retained epochs: a held
// core.QueryHandle keeps the graph as of its batch, and its Frozen view
// (this package's adapter) runs any algorithm on it. These tests pin that
// contract.

func servingPipeline(t *testing.T, directed, view bool) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      directed,
		Threads:       2,
		ComputeView:   view,
		ServeQueries:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotsMatchReplay holds one epoch per batch and checks every one
// against a sequential replay of the stream up to its batch. The view
// runs reuse a superseded epoch's buffers two batches later unless it is
// pinned, so every held epoch must survive that.
func TestSnapshotsMatchReplay(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, deletes := range []bool{false, true} {
			stream := crosscheck.NewStream(crosscheck.StreamConfig{
				Seed: 4, Batches: 20, BatchSize: 150, NumNodes: 60, Directed: directed, Deletes: deletes,
			})
			p := servingPipeline(t, directed, deletes)
			history := make([]*core.QueryHandle, 0, len(stream))
			for _, st := range stream {
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: st.Adds, Dels: st.Dels}); err != nil {
					t.Fatal(err)
				}
				h, err := p.AcquireQuery()
				if err != nil {
					t.Fatal(err)
				}
				history = append(history, h)
			}
			o := graph.NewOracle(directed)
			for i, st := range stream {
				o.Update(st.Adds)
				o.Delete(st.Dels)
				if got := history[i].Batch(); got != i {
					t.Fatalf("epoch retained after batch %d reports batch %d", i, got)
				}
				for _, d := range ds.DiffOracle(history[i].Frozen(), o, 4) {
					t.Errorf("directed=%v deletes=%v batch %d: %s", directed, deletes, i, d)
				}
			}
			for _, h := range history {
				h.Release()
			}
			p.Close()
		}
	}
}

// TestSnapshotImmutability: a retained epoch must not alias live state —
// later batches cannot mutate an earlier epoch's topology or values.
func TestSnapshotImmutability(t *testing.T) {
	p := servingPipeline(t, true, true)
	defer p.Close()
	p.Process(graph.Batch{{Src: 1, Dst: 2, Weight: 1}})
	early, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer early.Release()
	for v := graph.NodeID(0); v < 4; v++ {
		p.Process(graph.Batch{{Src: v + 2, Dst: v + 3, Weight: 1}, {Src: 0, Dst: v + 1, Weight: 1}})
	}
	if early.NumEdges() != 1 || early.OutDegree(1) != 1 || early.OutDegree(0) != 0 {
		t.Fatalf("early epoch mutated: edges=%d deg1=%d deg0=%d", early.NumEdges(), early.OutDegree(1), early.OutDegree(0))
	}
	if l, _ := early.Value(2); l != 1 {
		t.Fatalf("early epoch's label of vertex 2 is %v, want 1", l)
	}
	late, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer late.Release()
	if late.NumEdges() != 9 {
		t.Fatalf("late epoch edges=%d want 9", late.NumEdges())
	}
}

// TestSnapshotBounds: there is no history before the first batch, a
// frozen epoch answers out-of-range reads with nothing, and a held epoch
// stays readable after the pipeline closes while new pins fail.
func TestSnapshotBounds(t *testing.T) {
	p := servingPipeline(t, true, false)
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
		t.Fatalf("pin before the first batch: %v", err)
	}
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	f := h.Frozen()
	if f.OutDegree(99) != 0 || f.InDegree(99) != 0 || len(f.OutNeigh(99, nil)) != 0 {
		t.Fatal("out-of-range read answered")
	}
	p.Close()
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
		t.Fatalf("pin after Close: %v", err)
	}
	if h.Batch() != 0 || h.NumEdges() != 1 {
		t.Fatalf("held epoch after Close: batch %d, %d edges", h.Batch(), h.NumEdges())
	}
}
