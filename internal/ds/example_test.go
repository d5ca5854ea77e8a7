package ds_test

import (
	"fmt"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// ExampleCSRGraph runs an algorithm on a frozen topology.
func ExampleCSRGraph() {
	past := graph.BuildCSR(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})

	bfs := compute.MustNewEngine("bfs", compute.FS, compute.Options{})
	bfs.PerformAlg(ds.NewCSRGraph(*past), nil)
	fmt.Println(len(bfs.Values()), "vertices existed; depth of 1 was", bfs.Values()[1])
	// Output: 2 vertices existed; depth of 1 was 1
}
