package crosscheck_test

import (
	"bytes"
	"strings"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crashloop"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// These tests drive the differential sweep (crashloop.Sweep/Replay, which
// streams the generated streams through real core.Pipelines) end to end,
// with and without planted faults.

// TestCleanRunAllStructures is the harness's primary self-check: every
// registered structure, all six algorithms, both models, insert-only and
// mixed, directed and undirected — all must match the sequential oracle.
func TestCleanRunAllStructures(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	for _, tc := range []struct {
		name string
		cfg  crosscheck.StreamConfig
	}{
		{"directed-inserts", crosscheck.StreamConfig{Seed: 1, Batches: 10, BatchSize: 250, NumNodes: 80, Directed: true}},
		{"directed-mixed", crosscheck.StreamConfig{Seed: 2, Batches: 10, BatchSize: 250, NumNodes: 80, Directed: true, Deletes: true}},
		{"undirected-mixed", crosscheck.StreamConfig{Seed: 3, Batches: 8, BatchSize: 200, NumNodes: 64, Deletes: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := crashloop.Sweep(crashloop.SweepConfig{Stream: tc.cfg, Threads: 4})
			for _, f := range rep.Failures {
				t.Errorf("%s", f)
			}
			// One pipeline per (structure, algorithm, model), each checked
			// after every step: its structure, then its values.
			want := tc.cfg.Batches * len(ds.Names()) * len(compute.AlgNames()) * 2
			if rep.OK() && (rep.TopologyChecks != want || rep.ValueChecks != want) {
				t.Fatalf("%d topology / %d value checks, want %d each", rep.TopologyChecks, rep.ValueChecks, want)
			}
		})
	}
}

// TestInjectedFaultIsCaughtAndMinimized is the acceptance self-test: a
// deliberately planted off-by-one (an edge silently dropped at a degree
// boundary) must be caught by every structure, minimized to a handful of
// edges, and yield a repro file that round-trips and still reproduces the
// failure.
func TestInjectedFaultIsCaughtAndMinimized(t *testing.T) {
	spec := &crosscheck.FaultSpec{Fault: crosscheck.FaultDegreeCap, Cap: 5}
	cfg := crashloop.SweepConfig{
		Stream:  crosscheck.StreamConfig{Seed: 11, Batches: 15, BatchSize: 300, NumNodes: 40, Directed: true},
		Threads: 4,
		Fault:   spec,
	}
	stream := crosscheck.NewStream(cfg.Stream)
	rep := crashloop.Replay(cfg, stream)
	// The defect is in what every pipeline ingests, so each structure
	// reports it once, as a topology failure, and nothing cascades.
	if len(rep.Failures) != len(ds.Names()) {
		t.Fatalf("%d failures for %d structures: %v", len(rep.Failures), len(ds.Names()), rep.Failures)
	}
	for i, f := range rep.Failures {
		if f.Kind != "topology" || f.DS != rep.Structures[i] {
			t.Fatalf("failure %d is %s, want one topology failure per structure", i, f)
		}
	}
	f := rep.Failures[0]

	repro := crashloop.MinimizeFailure(cfg, stream, f)
	adds, dels := repro.Stream.NumEdges()
	origAdds, _ := stream.NumEdges()
	t.Logf("minimized %d adds -> %d adds, %d dels, %d batches (failure: %s)",
		origAdds, adds, dels, len(repro.Stream), f)
	// The minimal trigger is cap+1 distinct out-edges of one vertex; give
	// the shrinker generous slack but require real minimization.
	if adds > 3*(spec.Cap+1) || len(repro.Stream) > 3 {
		t.Fatalf("weak minimization: %d adds in %d batches", adds, len(repro.Stream))
	}

	// The minimized repro must still reproduce under the same fault...
	if crashloop.ReplayRepro(repro, spec).OK() {
		t.Fatal("minimized repro no longer reproduces the failure")
	}
	// ...and pass without it (the defect is planted, not in the stream).
	if got := crashloop.ReplayRepro(repro, nil); !got.OK() {
		t.Fatalf("minimized repro fails without the fault: %v", got.Failures)
	}

	// Round-trip through the file format.
	var buf bytes.Buffer
	if err := repro.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := crosscheck.ParseRepro(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of written repro: %v\n%s", err, buf.String())
	}
	if back.DS != repro.DS || back.Directed != repro.Directed || len(back.Stream) != len(repro.Stream) {
		t.Fatalf("round trip changed repro: %+v vs %+v", back, repro)
	}
	if crashloop.ReplayRepro(back, spec).OK() {
		t.Fatal("parsed repro no longer reproduces the failure")
	}
}

// TestDroppedEdgeFaultMinimizesToOneEdge checks the sharpest case: a
// single swallowed insert shrinks to a one-edge, one-batch repro.
func TestDroppedEdgeFaultMinimizesToOneEdge(t *testing.T) {
	scfg := crosscheck.StreamConfig{Seed: 5, Batches: 10, BatchSize: 200, NumNodes: 50, Directed: true}
	stream := crosscheck.NewStream(scfg)
	// Drop a pair the stream certainly contains: its first edge.
	victim := stream[0].Adds[0]
	cfg := crashloop.SweepConfig{
		Stream:       scfg,
		Threads:      4,
		Structures:   []string{"dah"},
		Fault:        &crosscheck.FaultSpec{Fault: crosscheck.FaultDropEdge, Src: victim.Src, Dst: victim.Dst},
		StopAtFirst:  true,
		TopologyOnly: true,
	}

	rep := crashloop.Replay(cfg, stream)
	if rep.OK() {
		t.Fatal("harness missed the dropped edge")
	}
	repro := crashloop.MinimizeFailure(cfg, stream, rep.Failures[0])
	adds, dels := repro.Stream.NumEdges()
	if len(repro.Stream) != 1 || adds != 1 || dels != 0 {
		t.Fatalf("want 1-batch 1-add repro, got %d batches %d adds %d dels", len(repro.Stream), adds, dels)
	}
	e := repro.Stream[0].Adds[0]
	if e.Src != victim.Src || e.Dst != victim.Dst {
		t.Fatalf("minimized to wrong edge (%d,%d), victim (%d,%d)", e.Src, e.Dst, victim.Src, victim.Dst)
	}
}

// TestStaleWeightFaultCaught checks the overwrite path is actually
// differential-tested: a structure that ignores re-insert weights must
// fail the weight comparison.
func TestStaleWeightFaultCaught(t *testing.T) {
	rep := crashloop.Sweep(crashloop.SweepConfig{
		Stream:       crosscheck.StreamConfig{Seed: 9, Batches: 12, BatchSize: 150, NumNodes: 24, Directed: true},
		Threads:      2,
		Structures:   []string{"stinger"},
		Fault:        &crosscheck.FaultSpec{Fault: crosscheck.FaultStaleWeight},
		StopAtFirst:  true,
		TopologyOnly: true,
	})
	if rep.OK() {
		t.Fatal("harness missed the stale-weight fault")
	}
	if !strings.Contains(rep.Failures[0].Detail, "weight") {
		t.Fatalf("expected a weight mismatch, got: %s", rep.Failures[0])
	}
}

func TestReproReplayValuesFailure(t *testing.T) {
	// A values repro (one with an alg line) replays one pipeline running
	// that engine, checked for topology and values once per step.
	r := &crosscheck.Repro{
		Directed: true, Threads: 2, DS: "adjshared", Alg: "bfs", Model: compute.INC,
		Stream: crosscheck.Stream{{Adds: graph.Batch{{Src: 0, Dst: 1, Weight: 1}}}},
	}
	rep := crashloop.ReplayRepro(r, nil)
	if !rep.OK() {
		t.Fatalf("healthy values replay failed: %v", rep.Failures)
	}
	if rep.ValueChecks != 1 || rep.TopologyChecks != 1 {
		t.Fatalf("focused replay ran %d topology / %d value checks, want 1/1", rep.TopologyChecks, rep.ValueChecks)
	}
}
