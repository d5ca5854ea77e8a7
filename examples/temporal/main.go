// Temporal: multi-snapshot analytics over a streaming graph — the model
// the paper slates for a future SAGA-Bench version. While the live
// pipeline keeps incremental connected components up to date, we pin the
// epoch it publishes after every batch and hold on to it; afterwards we
// travel back in time through those retained epochs and ask when two
// accounts first became connected and how fast the biggest community
// absorbed the graph. A pinned epoch carries the component labels as of
// its batch, so no traversal is rerun.
//
//	go run ./examples/temporal
package main

import (
	"fmt"
	"log"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

func main() {
	spec := gen.MustDataset("lj", gen.ProfileTiny)
	edges := spec.Generate(99)
	batches := graph.Batches(edges, spec.BatchSize)

	pipe, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "graphone", // log-structured: O(1) ingest, snapshot-friendly
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       4,
		MaxNodesHint:  spec.NumNodes,
		ServeQueries:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One retained epoch per batch: history[i] is the graph after batch i.
	history := make([]*core.QueryHandle, 0, len(batches))
	defer func() {
		for _, h := range history {
			h.Release()
		}
	}()
	for _, b := range batches {
		pipe.Process(b)
		h, err := pipe.AcquireQuery()
		if err != nil {
			log.Fatal(err)
		}
		history = append(history, h)
	}
	fmt.Printf("streamed %d batches; %d epochs retained\n", len(batches), len(history))

	// Time travel 1: when did vertices 2 and 3 first join the same
	// weakly connected component?
	const a, bVert = 2, 3
	joined := -1
	for i, h := range history {
		la, okA := h.Value(a)
		lb, okB := h.Value(bVert)
		if okA && okB && la == lb {
			joined = i
			break
		}
	}
	if joined < 0 {
		fmt.Printf("vertices %d and %d never joined\n", a, bVert)
	} else {
		fmt.Printf("vertices %d and %d first connected after batch %d\n", a, bVert, joined)
	}

	// Time travel 2: growth of the largest component across the stream.
	fmt.Println("largest-component share over time:")
	for i := 4; i < len(history); i += 16 {
		size, total := largestComponent(history[i].Values())
		fmt.Printf("  after batch %3d: %5.1f%% of %d vertices\n",
			i, 100*float64(size)/float64(total), total)
	}

	// The live pipeline and the last retained epoch must agree.
	final := history[len(history)-1]
	if final.NumEdges() != pipe.Graph().NumEdges() {
		log.Fatalf("snapshot/live divergence: %d vs %d edges", final.NumEdges(), pipe.Graph().NumEdges())
	}
	fmt.Printf("final snapshot matches live graph: %d distinct edges\n", final.NumEdges())
}

// largestComponent sizes the biggest weakly connected component from a
// vector of component labels.
func largestComponent(labels []float64) (largest, total int) {
	sizes := map[float64]int{}
	for _, l := range labels {
		sizes[l]++
		largest = max(largest, sizes[l])
	}
	return largest, len(labels)
}
