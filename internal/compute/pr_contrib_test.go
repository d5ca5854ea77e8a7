package compute_test

import (
	"fmt"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// tightPR makes both PageRank models converge well inside
// compute.Tolerance("pr"), as the crosscheck harness does.
var tightPR = compute.Options{PRTolerance: 1e-12, PRMaxIters: 200, Epsilon: 1e-12}

// TestIncContribInvariant streams crosscheck batches — deletes, no-op
// deletes, weight overwrites, hubs, duplicates, and a vertex space that
// widens mid-stream — through INC PageRank and demands, after every batch,
// that the contribution vector equals vals[u]/outdeg(u) bit for bit at
// every vertex. The engine is replaced by a fresh one restored from its
// exported state once, and restored in place from a perturbed state once:
// contrib is not part of compute.State, so both must rebuild it.
func TestIncContribInvariant(t *testing.T) {
	for _, directed := range []bool{true, false} {
		// Three segments of eight batches over a widening ID space: the
		// vertex count grows at batches 8 and 16.
		var stream crosscheck.Stream
		for i, nodes := range []int{32, 96, 200} {
			stream = append(stream, crosscheck.NewStream(crosscheck.StreamConfig{
				Seed: int64(5 + i), Batches: 8, BatchSize: 250, NumNodes: nodes, Directed: directed, Deletes: true})...)
		}
		for _, useView := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("directed=%v/view=%v/threads=%d", directed, useView, threads)
				t.Run(name, func(t *testing.T) {
					contribInvariantRun(t, stream, directed, useView, threads)
				})
			}
		}
	}
}

func contribInvariantRun(t *testing.T, stream crosscheck.Stream, directed, useView bool, threads int) {
	g := ds.MustNew("hybrid", ds.Config{Directed: directed, Threads: threads})
	var cg ds.Graph = g
	var view *ds.ComputeView
	if useView {
		view, _ = ds.NewComputeView(g, threads)
		cg = view
	}
	opts := tightPR
	opts.Threads = threads
	e := compute.MustNewEngine("pr", compute.INC, opts)
	oracle := graph.NewOracle(directed)
	var deletes, overwrites, growths int
	for bi, st := range stream {
		n0 := g.NumNodes()
		overwrites += len(ds.Overwritten(g, st.Adds))
		g.Update(st.Adds)
		if err := g.(ds.Deleter).Delete(st.Dels); err != nil {
			t.Fatal(err)
		}
		oracle.Update(st.Adds)
		oracle.Delete(st.Dels)
		deletes += len(st.Dels)
		if bi > 0 && g.NumNodes() > n0 {
			growths++
		}
		if view != nil {
			view.Refresh(st.Adds, st.Dels)
		}
		switch bi {
		case 5: // recovery: a new engine picks up the exported state
			fresh := compute.MustNewEngine("pr", compute.INC, opts)
			fresh.(compute.Stateful).RestoreState(e.(compute.Stateful).ExportState())
			e = fresh
		case 16: // as |V| grows, a state that is not the engine's own: every value nudged by 1e-9 of itself
			st := e.(compute.Stateful).ExportState()
			for i := range st.Values {
				st.Values[i] *= 1 + 1e-9
			}
			e.(compute.Stateful).RestoreState(st)
		}
		// No-op deletes name vertices the graph never had; the engine
		// must skip them.
		e.PerformAlg(cg, affectedOf(append(append(graph.Batch{}, st.Adds...), st.Dels...)))
		if err := compute.CheckContrib(e, cg); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if v := compute.DiffValues(e.Values(), compute.MustReference("pr", oracle, opts), compute.Tolerance("pr")); v >= 0 {
			t.Fatalf("batch %d: vertex %d departs from the reference", bi, v)
		}
	}
	if deletes == 0 || overwrites == 0 || growths < 2 {
		t.Fatalf("stream too tame: %d deletes, %d overwrites, %d vertex-count growths", deletes, overwrites, growths)
	}
}

// TestPRParallelSweepsMatchReference runs both PageRank models with four
// workers on a hub-heavy graph — one vertex takes 45 % of all in-edges, so
// the in-degree-balanced cuts give it a range of its own and every worker
// reads its contribution — for the race detector: the FS passes rely on
// barriers for their plain stores, the INC rounds write contrib beside
// vals while neighbours read it. FS runs on an in-only view too, whose
// pull workers loop over the flat ID mirror; INC pushes along out-runs,
// which that view does not hold.
func TestPRParallelSweepsMatchReference(t *testing.T) {
	spec := gen.MustDataset("wiki", gen.ProfileTiny)
	edges := spec.Generate(9)
	opts := tightPR
	opts.Threads = 4
	for _, path := range []string{"interface", "view", "in-only-view"} {
		g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 4})
		var cg ds.Graph = g
		var view *ds.ComputeView
		if path != "interface" {
			view, _ = ds.NewComputeView(g, 4)
			cg = view
		}
		oracle := graph.NewOracle(true)
		engines := []compute.Engine{compute.MustNewEngine("pr", compute.FS, opts)}
		if path == "in-only-view" {
			view.MirrorInOnly()
		} else {
			engines = append(engines, compute.MustNewEngine("pr", compute.INC, opts))
		}
		for lo := 0; lo < len(edges); lo += spec.BatchSize {
			hi := lo + spec.BatchSize
			if hi > len(edges) {
				hi = len(edges)
			}
			batch := graph.Batch(edges[lo:hi])
			g.Update(batch)
			oracle.Update(batch)
			if view != nil {
				view.Refresh(batch, nil)
			}
			want := compute.MustReference("pr", oracle, opts)
			for _, e := range engines {
				e.PerformAlg(cg, affectedOf(batch))
				if v := compute.DiffValues(e.Values(), want, compute.Tolerance("pr")); v >= 0 {
					t.Fatalf("%s %s batch at %d: vertex %d got %v want %v", path, e.Model(), lo, v, e.Values()[v], want[v])
				}
				if err := compute.CheckContrib(e, cg); err != nil {
					t.Fatalf("%s batch at %d: %v", path, lo, err)
				}
			}
		}
	}
}
