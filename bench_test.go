// Package sagabench's root benchmarks regenerate every table and figure of
// the paper at reduced (tiny-profile) scale, one testing.B benchmark per
// experiment. Each iteration performs the experiment's full measurement
// sweep, so b.N=1 runs already produce the paper-shaped output (discarded
// here; use cmd/sagabench to see the rows).
//
//	go test -bench=. -benchmem
package sagabench_test

import (
	"io"
	"testing"

	"sagabench/internal/bench"
	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
)

func benchOpts() bench.Options {
	return bench.Options{
		Profile:    gen.ProfileTiny,
		Threads:    2,
		Repeats:    1,
		Seed:       42,
		MachineDiv: 256,
		Out:        io.Discard,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts())
		if err := h.RunExperiment(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Datasets regenerates Table II (dataset inventory).
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Best regenerates Table III (best structure+model per
// algorithm/dataset/stage over the full 8-combination sweep).
func BenchmarkTable3Best(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Degrees regenerates Table IV (degree tails).
func BenchmarkTable4Degrees(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig6DataStructures regenerates Fig 6 (normalized latencies of
// AC/DAH/Stinger vs AS at P3).
func BenchmarkFig6DataStructures(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7ComputeModel regenerates Fig 7 (FS/INC compute ratio).
func BenchmarkFig7ComputeModel(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8UpdateShare regenerates Fig 8 (update share of latency).
func BenchmarkFig8UpdateShare(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Scaling regenerates Fig 9 (core scaling, bandwidth, QPI).
func BenchmarkFig9Scaling(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Caches regenerates Fig 10 (hit ratios and MPKI).
func BenchmarkFig10Caches(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkAblation sweeps the data-structure design parameters.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkExtensions measures the beyond-the-paper capabilities
// (log-structured ingest, update/compute overlap, sliding-window deletes).
func BenchmarkExtensions(b *testing.B) { runExperiment(b, "extensions") }

// BenchmarkSensitivity re-profiles across machine scales.
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sensitivity") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: per-structure update and traversal throughput, the
// primitives whose costs Fig 6 aggregates.

func benchUpdate(b *testing.B, dsName, dataset string) {
	spec := gen.MustDataset(dataset, gen.ProfileTiny)
	edges := spec.Generate(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: dsName,
			Algorithm:     "bfs",
			Model:         compute.INC,
			Directed:      spec.Directed,
			Threads:       2,
			MaxNodesHint:  spec.NumNodes,
		})
		if err != nil {
			b.Fatal(err)
		}
		g := p.Graph()
		for start := 0; start < len(edges); start += spec.BatchSize {
			end := start + spec.BatchSize
			if end > len(edges) {
				end = len(edges)
			}
			g.Update(edges[start:end])
		}
	}
	b.SetBytes(int64(len(edges)) * 12)
}

func BenchmarkUpdateShortTailAS(b *testing.B)   { benchUpdate(b, "adjshared", "lj") }
func BenchmarkUpdateShortTailAC(b *testing.B)   { benchUpdate(b, "adjchunked", "lj") }
func BenchmarkUpdateShortTailStgr(b *testing.B) { benchUpdate(b, "stinger", "lj") }
func BenchmarkUpdateShortTailDAH(b *testing.B)  { benchUpdate(b, "dah", "lj") }
func BenchmarkUpdateHeavyTailAS(b *testing.B)   { benchUpdate(b, "adjshared", "wiki") }
func BenchmarkUpdateHeavyTailAC(b *testing.B)   { benchUpdate(b, "adjchunked", "wiki") }
func BenchmarkUpdateHeavyTailStgr(b *testing.B) { benchUpdate(b, "stinger", "wiki") }
func BenchmarkUpdateHeavyTailDAH(b *testing.B)  { benchUpdate(b, "dah", "wiki") }

func benchCompute(b *testing.B, dsName, alg string, model compute.Model) {
	spec := gen.MustDataset("lj", gen.ProfileTiny)
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: dsName,
		Algorithm:     alg,
		Model:         model,
		Directed:      spec.Directed,
		Threads:       2,
		MaxNodesHint:  spec.NumNodes,
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
	// Re-run the compute phase on the final topology.
	final := edges[len(edges)-minInt(spec.BatchSize, len(edges)):]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(final)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkComputePRFSonAS(b *testing.B)    { benchCompute(b, "adjshared", "pr", compute.FS) }
func BenchmarkComputePRINConAS(b *testing.B)   { benchCompute(b, "adjshared", "pr", compute.INC) }
func BenchmarkComputePRINConDAH(b *testing.B)  { benchCompute(b, "dah", "pr", compute.INC) }
func BenchmarkComputeCCINConAS(b *testing.B)   { benchCompute(b, "adjshared", "cc", compute.INC) }
func BenchmarkComputeBFSFSonStgr(b *testing.B) { benchCompute(b, "stinger", "bfs", compute.FS) }

// benchComputeRMAT is benchCompute on update-churn's graph shape at 2^15
// vertices: the paper's RMAT (a,b,c), about 7.5 out-edges a vertex, 250 K
// edges streamed in 10 K-edge batches through hybrid's interface path.
// lj's 4 800 vertices give FS BFS one wide level and FS PageRank an
// in-edge at every vertex; here BFS has the depth profile its direction
// rule is tuned on (a 2^18-vertex table is in EXPERIMENTS.md), and
// PageRank's sweep has vertices without in-edges to skip.
func benchComputeRMAT(b *testing.B, dsName, alg string, model compute.Model) {
	const nodes, edgeCount, batch = 1 << 15, 250_000, 10_000
	spec := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: edgeCount, A: .55, B: .15, C: .15, D: .15}
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: dsName,
		Algorithm:     alg,
		Model:         model,
		Directed:      true,
		Threads:       2,
		MaxNodesHint:  nodes,
	})
	if err != nil {
		b.Fatal(err)
	}
	edges := spec.Generate(7)
	for start := 0; start < len(edges); start += batch {
		p.Process(edges[start : start+batch])
	}
	final := edges[len(edges)-batch:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(final)
	}
}

func BenchmarkComputeBFSFSonHybridRMAT(b *testing.B) {
	benchComputeRMAT(b, "hybrid", "bfs", compute.FS)
}

func BenchmarkComputePRFSonHybridRMAT(b *testing.B) {
	benchComputeRMAT(b, "hybrid", "pr", compute.FS)
}
