package sagabench_test

import (
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// benchComputeView is benchCompute with the compute-view toggle exposed:
// the same warmed pipeline re-processes the final batch, so each iteration
// measures one update phase (including the mirror refresh when the view is
// on) plus one compute phase on the final topology. Off/On pairs of the
// same configuration quantify what the flat kernels buy net of the
// refresh they require; BENCH_compute.json checks in one measured run.
//
// Unlike the benchCompute suite these run at the default profile — the
// dataset's default batch size (lj: 1000) is where the amortization
// argument is made, and at the tiny profile the refresh cost dominates
// the shrunken compute phase for the cheaper algorithms.
func benchComputeView(b *testing.B, dsName, alg string, model compute.Model, view bool) {
	spec := gen.MustDataset("lj", gen.ProfileDefault)
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: dsName,
		Algorithm:     alg,
		Model:         model,
		Directed:      spec.Directed,
		Threads:       2,
		MaxNodesHint:  spec.NumNodes,
		ComputeView:   view,
	})
	if err != nil {
		b.Fatal(err)
	}
	edges := spec.Generate(7)
	for start := 0; start < len(edges); start += spec.BatchSize {
		end := start + spec.BatchSize
		if end > len(edges) {
			end = len(edges)
		}
		p.Process(edges[start:end])
	}
	final := edges[len(edges)-minInt(spec.BatchSize, len(edges)):]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(final)
	}
}

func BenchmarkViewOffPRFSonAS(b *testing.B) {
	benchComputeView(b, "adjshared", "pr", compute.FS, false)
}
func BenchmarkViewOnPRFSonAS(b *testing.B) { benchComputeView(b, "adjshared", "pr", compute.FS, true) }
func BenchmarkViewOffPRFSonStgr(b *testing.B) {
	benchComputeView(b, "stinger", "pr", compute.FS, false)
}
func BenchmarkViewOnPRFSonStgr(b *testing.B) { benchComputeView(b, "stinger", "pr", compute.FS, true) }
func BenchmarkViewOffPRFSonDAH(b *testing.B) { benchComputeView(b, "dah", "pr", compute.FS, false) }
func BenchmarkViewOnPRFSonDAH(b *testing.B)  { benchComputeView(b, "dah", "pr", compute.FS, true) }

func BenchmarkViewOffSSSPFSonAS(b *testing.B) {
	benchComputeView(b, "adjshared", "sssp", compute.FS, false)
}
func BenchmarkViewOnSSSPFSonAS(b *testing.B) {
	benchComputeView(b, "adjshared", "sssp", compute.FS, true)
}
func BenchmarkViewOffSSSPFSonStgr(b *testing.B) {
	benchComputeView(b, "stinger", "sssp", compute.FS, false)
}
func BenchmarkViewOnSSSPFSonStgr(b *testing.B) {
	benchComputeView(b, "stinger", "sssp", compute.FS, true)
}
func BenchmarkViewOffSSSPFSonDAH(b *testing.B) { benchComputeView(b, "dah", "sssp", compute.FS, false) }
func BenchmarkViewOnSSSPFSonDAH(b *testing.B)  { benchComputeView(b, "dah", "sssp", compute.FS, true) }

func BenchmarkViewOffCCFSonStgr(b *testing.B) {
	benchComputeView(b, "stinger", "cc", compute.FS, false)
}
func BenchmarkViewOnCCFSonStgr(b *testing.B) { benchComputeView(b, "stinger", "cc", compute.FS, true) }

func BenchmarkViewOffPRINConAS(b *testing.B) {
	benchComputeView(b, "adjshared", "pr", compute.INC, false)
}
func BenchmarkViewOnPRINConAS(b *testing.B) {
	benchComputeView(b, "adjshared", "pr", compute.INC, true)
}

// benchViewRefreshSmallBatch times the mirror refresh alone, at the
// paper's small batch size on a graph large enough that a per-vertex pass
// shows: 2^16 vertices, ~500 K RMAT edges preloaded, then one fresh
// 1 000-edge batch per iteration (ingested with the timer stopped). What
// it gates is that a refresh costs what the batch touched — ~1 900 dirty
// runs of 65 536 — not what the graph holds. One untimed batch follows the
// preload, so that the first timed refresh is a steady-state one whatever
// -benchtime says (the first build allocates no slack; the batch after it
// compacts once and does).
func benchViewRefreshSmallBatch(b *testing.B, dsName string) {
	const nodes, preload, batch = 1 << 16, 500_000, 1_000
	spec := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: preload, A: .55, B: .15, C: .15, D: .15}
	g := ds.MustNew(dsName, ds.Config{Directed: true, Threads: 1, MaxNodesHint: nodes})
	view, ok := ds.NewComputeView(g, 1)
	if !ok {
		b.Fatalf("%s exposes no flat view", dsName)
	}
	edges := spec.Generate(7)
	g.Update(edges)
	view.Refresh(edges, nil)
	spec.NumEdges = batch * 256
	stream := spec.Generate(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := -1; i < b.N; i++ {
		b.StopTimer()
		at := (i + 1) * batch % len(stream)
		adds := graph.Batch(stream[at : at+batch])
		g.Update(adds)
		if i >= 0 {
			b.StartTimer()
		}
		view.Refresh(adds, nil)
	}
}

func BenchmarkViewRefreshSmallBatchHybrid(b *testing.B) { benchViewRefreshSmallBatch(b, "hybrid") }
func BenchmarkViewRefreshSmallBatchAS(b *testing.B)     { benchViewRefreshSmallBatch(b, "adjshared") }
