package ds_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// csrOf builds the contiguous CSR a directed stream reaches.
func csrOf(edges ...graph.Edge) *graph.CSR {
	o := graph.NewOracle(true)
	o.Update(edges)
	return graph.BuildCSR(o.NumNodes(), o.Edges())
}

// outOnlyOf keeps c's out runs, the shape of an out-only mirror.
func outOnlyOf(c *graph.CSR) graph.CSR {
	return graph.CSR{OutSpans: c.OutSpans, OutAdj: c.OutAdj, Edges: c.Edges}
}

// inOnlyOf keeps c's in runs as source IDs and its out-degrees, the shape
// of an in-only mirror.
func inOnlyOf(c *graph.CSR) graph.CSR {
	r := graph.CSR{
		InSpans: c.InSpans,
		InIDs:   make([]graph.NodeID, len(c.InAdj)),
		OutDeg:  make([]uint32, c.NumNodes()),
		Edges:   c.Edges,
	}
	for i, nb := range c.InAdj {
		r.InIDs[i] = nb.ID
	}
	for v := range r.OutDeg {
		r.OutDeg[v] = uint32(c.OutDegree(graph.NodeID(v)))
	}
	return r
}

// csrCase is one CSR shape the adapter presents, with the values an
// algorithm reaches on it and the reads of a direction the shape leaves out.
type csrCase struct {
	name   string
	csr    graph.CSR
	alg    string
	want   []float64
	absent []string
}

// csrCases returns one row per shape, named "<shape>/<alg>".
func csrCases() []csrCase {
	e01 := graph.Edge{Src: 0, Dst: 1, Weight: 2}
	e12 := graph.Edge{Src: 1, Dst: 2, Weight: 3}
	e23 := graph.Edge{Src: 2, Dst: 3, Weight: 5}
	chain := csrOf(e01, e12, e23)
	prFull := compute.MustNewEngine("pr", compute.FS, compute.Options{})
	prFull.PerformAlg(ds.NewCSRGraph(*chain), nil)
	return []csrCase{
		// BFS on an earlier snapshot: vertex 3 does not exist yet.
		{"full/bfs", *csrOf(e01, e12), "bfs", []float64{0, 1, 2}, nil},
		// SSSP on the final snapshot sees the full chain with weights.
		{"full/sssp", *chain, "sssp", []float64{0, 2, 5, 10}, nil},
		{"out-only/sssp", outOnlyOf(chain), "sssp", []float64{0, 2, 5, 10}, []string{"InDegree", "InNeigh"}},
		{"in-only/pr", inOnlyOf(chain), "pr", prFull.Values(), []string{"OutNeigh", "InNeigh"}},
	}
}

// TestCSRGraphRunsAlgorithms runs an algorithm through the adapter on each
// CSR shape.
func TestCSRGraphRunsAlgorithms(t *testing.T) {
	for _, tc := range csrCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := compute.MustNewEngine(tc.alg, compute.FS, compute.Options{})
			e.PerformAlg(ds.NewCSRGraph(tc.csr), nil)
			if got := e.Values(); !slices.Equal(got, tc.want) {
				t.Fatalf("%s values %v, want %v", tc.alg, got, tc.want)
			}
		})
	}
}

// TestCSRGraphIsImmutable checks that every shape panics on Update, and
// panics naming the shape on each read of a direction the shape leaves out.
func TestCSRGraphIsImmutable(t *testing.T) {
	for _, tc := range csrCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := ds.NewCSRGraph(tc.csr)
			reads := map[string]func(){
				"InDegree": func() { g.InDegree(1) },
				"InNeigh":  func() { g.InNeigh(1, nil) },
				"OutNeigh": func() { g.OutNeigh(0, nil) },
			}
			if msg := panicOf(func() { g.Update(graph.Batch{{Src: 1, Dst: 2, Weight: 1}}) }); msg == "" {
				t.Fatal("Update on a CSRGraph did not panic")
			}
			shape, _, _ := strings.Cut(tc.name, "/")
			for _, read := range tc.absent {
				if msg := panicOf(reads[read]); !strings.Contains(msg, shape) {
					t.Fatalf("%s on the %s shape: panic %q, want one naming the shape", read, shape, msg)
				}
			}
		})
	}
}

// TestCSRGraphBounds checks what every shape answers alike: its identity,
// and nothing for a vertex past the vertex space.
func TestCSRGraphBounds(t *testing.T) {
	for _, tc := range csrCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := ds.NewCSRGraph(tc.csr)
			if g.NumNodes() != tc.csr.NumNodes() || g.NumEdges() != tc.csr.Edges || !g.Directed() {
				t.Fatalf("identity: n=%d e=%d directed=%v", g.NumNodes(), g.NumEdges(), g.Directed())
			}
			if g.OutDegree(99) != 0 || g.InDegree(99) != 0 {
				t.Fatal("out-of-range degree")
			}
			if len(g.OutNeigh(99, nil)) != 0 || len(g.InNeigh(99, nil)) != 0 {
				t.Fatal("out-of-range adjacency")
			}
		})
	}
}

// panicOf runs f and returns its panic message ("" when it returns).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
