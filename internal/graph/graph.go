// Package graph defines the core value types shared by every SAGA-Bench
// component: vertex identifiers, weighted edges, edge batches, and neighbor
// records. It also provides small structural helpers (degree accounting,
// batch statistics) and a compressed-sparse-row snapshot used by tests and
// by static baselines.
//
// saga:deterministic — the Oracle and the reference algorithms are the
// fixed point every differential check compares against, so their outputs
// must not depend on wall clock, unseeded randomness, or map iteration
// order (enforced by sagavet; see internal/analysis).
//
// saga:paniccapture — ParallelRanges, the one fork-join every parallel
// region of the batch path runs through, lives here, so its goroutine
// must capture panics for the poison-batch quarantine.
package graph

// NodeID identifies a vertex. SAGA-Bench datasets are dense integer ID
// spaces, so a 32-bit ID keeps the data structures compact.
type NodeID uint32

// Weight is an edge weight. SSSP and SSWP consume weights; the unweighted
// algorithms ignore them.
type Weight float32

// Edge is one directed edge in the input stream.
type Edge struct {
	Src    NodeID
	Dst    NodeID
	Weight Weight
}

// Batch is one ingest unit: the driver slices the shuffled input stream
// into fixed-size batches and feeds them to the update phase one at a time.
type Batch []Edge

// Neighbor is one adjacency record returned by topology traversal.
type Neighbor struct {
	ID     NodeID
	Weight Weight
}

// MaxNode returns the largest vertex ID mentioned in the batch and true,
// or 0 and false for an empty batch.
func (b Batch) MaxNode() (NodeID, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var max NodeID
	for _, e := range b {
		if e.Src > max {
			max = e.Src
		}
		if e.Dst > max {
			max = e.Dst
		}
	}
	return max, true
}

// DegreeStats summarizes the degree distribution of an edge set; it backs
// Table IV (max in/out degree for the entire dataset and for one batch).
type DegreeStats struct {
	MaxIn      int
	MaxOut     int
	MaxInNode  NodeID
	MaxOutNode NodeID
	NumNodes   int // 1 + highest vertex ID seen
	NumEdges   int
}

// ComputeDegreeStats scans the edges once and accumulates in/out degree
// extremes. Duplicate edges count multiple times, matching how a raw input
// file's degree distribution is reported in the paper.
func ComputeDegreeStats(edges []Edge) DegreeStats {
	var s DegreeStats
	s.NumEdges = len(edges)
	if len(edges) == 0 {
		return s
	}
	var max NodeID
	for _, e := range edges {
		if e.Src > max {
			max = e.Src
		}
		if e.Dst > max {
			max = e.Dst
		}
	}
	in := make([]int32, int(max)+1)
	out := make([]int32, int(max)+1)
	for _, e := range edges {
		out[e.Src]++
		in[e.Dst]++
	}
	for v := range out {
		if int(out[v]) > s.MaxOut {
			s.MaxOut = int(out[v])
			s.MaxOutNode = NodeID(v)
		}
		if int(in[v]) > s.MaxIn {
			s.MaxIn = int(in[v])
			s.MaxInNode = NodeID(v)
		}
	}
	s.NumNodes = int(max) + 1
	return s
}

// Batches splits edges into consecutive batches of size batchSize; the last
// batch may be short. batchSize must be positive.
func Batches(edges []Edge, batchSize int) []Batch {
	if batchSize <= 0 {
		panic("graph: batch size must be positive")
	}
	out := make([]Batch, 0, (len(edges)+batchSize-1)/batchSize)
	for start := 0; start < len(edges); start += batchSize {
		end := start + batchSize
		if end > len(edges) {
			end = len(edges)
		}
		out = append(out, Batch(edges[start:end]))
	}
	return out
}
