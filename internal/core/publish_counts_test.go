package core_test

import (
	"slices"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// TestPublishWorkCounts names the work a served view pipeline does per
// insert-only batch on a 2^14-vertex version of the small-durable
// benchmark workload (hybrid, INC CC, view and epochs): an RMAT graph of
// four edges per vertex preloaded in 50 batches, then 200 batches of 64
// edges, one thread. The counts are deterministic. Per batch (medians):
//
//   - the refresh writes at most half the entries its dirty runs hold,
//     which is what relocating every dirty run writes: runs that only grew
//     are extended in place;
//   - the publish writes at most |V|/8 values: the changes of the last two
//     phases, not the whole vector;
//
// and at most 15 of the 200 refreshes compact. Relocating every dirty run,
// the mirror wrote all it held (3 961 entries) and compacted 19 times, and
// every publish wrote all 16 384 values; EXPERIMENTS.md "Extension in
// place" has the full-scale figures.
func TestPublishWorkCounts(t *testing.T) {
	const nodes, preload, batch, batches = 1 << 14, 4 << 14, 64, 200
	spec := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: preload + batch*batches, A: .55, B: .15, C: .15, D: .15}
	edges := spec.Generate(42)
	p, err := core.NewPipeline(core.PipelineConfig{DataStructure: "hybrid", Algorithm: "cc", Model: compute.INC,
		Directed: true, Threads: 1, MaxNodesHint: nodes, ComputeView: true, ServeQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for at := 0; at < preload; at += preload / 50 {
		p.Process(graph.Batch(edges[at : at+preload/50]))
	}
	two := p.Graph().(*ds.TwoCopy)
	var written, held, values []int
	compactions := 0
	for i := 0; i < batches; i++ {
		b := graph.Batch(edges[preload+i*batch : preload+(i+1)*batch])
		p.Process(b)
		r := p.LastBatch()
		if r.View.Full {
			compactions++
			continue
		}
		// What relocating every dirty run writes: the runs of the batch's
		// sources and destinations, each counted once per direction.
		var srcs, dsts []graph.NodeID
		for _, e := range b {
			srcs, dsts = append(srcs, e.Src), append(dsts, e.Dst)
		}
		slices.Sort(srcs)
		slices.Sort(dsts)
		h := 0
		for _, u := range slices.Compact(srcs) {
			h += two.OutStore().Degree(u)
		}
		for _, u := range slices.Compact(dsts) {
			h += two.InStore().Degree(u)
		}
		written, held, values = append(written, r.View.Written), append(held, h), append(values, r.EpochValues)
	}
	med := func(xs []int) int { xs = slices.Clone(xs); slices.Sort(xs); return xs[len(xs)/2] }
	t.Logf("per relocating refresh (median): written %d of %d held by the dirty runs; values published %d of %d; %d compactions",
		med(written), med(held), med(values), nodes, compactions)
	if 2*med(written) > med(held) {
		t.Errorf("refresh writes %d entries per batch (median), want at most half the %d its dirty runs hold", med(written), med(held))
	}
	if 8*med(values) > nodes {
		t.Errorf("publish writes %d values per batch (median), want at most %d", med(values), nodes/8)
	}
	if compactions > 15 {
		t.Errorf("%d of %d refreshes compacted, want at most 15", compactions, batches)
	}
}
