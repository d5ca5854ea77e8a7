package core_test

import (
	"fmt"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// ExamplePipeline shows the smallest end-to-end use of the platform:
// couple a data structure with an incremental algorithm and feed batches.
func ExamplePipeline() {
	pipe, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "stinger",
		Algorithm:     "bfs",
		Model:         compute.INC,
		Directed:      true,
	})
	if err != nil {
		panic(err)
	}
	// Batch 1: a chain 0 -> 1 -> 2.
	pipe.Process(graph.Batch{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	})
	// Batch 2: a shortcut 0 -> 2 arrives; the incremental engine lowers
	// only the affected depth.
	pipe.Process(graph.Batch{{Src: 0, Dst: 2, Weight: 1}})
	fmt.Println(pipe.Values())
	// Output: [0 1 1]
}

// ExamplePipeline_ProcessMixed shows a batch that simultaneously inserts
// and deletes edges (the streaming extension; FS recomputes correctly
// under any topology change).
func ExamplePipeline_ProcessMixed() {
	pipe, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "hybrid",
		Algorithm:     "cc",
		Model:         compute.FS,
		Directed:      true,
	})
	if err != nil {
		panic(err)
	}
	pipe.Process(graph.Batch{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
	})
	// The bridge 1->2 arrives while 2->3 expires: components merge and
	// split in one batch.
	if _, err := pipe.ProcessMixed(core.MixedBatch{
		Adds: graph.Batch{{Src: 1, Dst: 2, Weight: 1}},
		Dels: graph.Batch{{Src: 2, Dst: 3, Weight: 1}},
	}); err != nil {
		panic(err)
	}
	fmt.Println(pipe.Values())
	// Output: [0 0 0 3]
}
