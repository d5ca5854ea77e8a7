package archsim

import (
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

func testReplayer(t *testing.T, dsName string) *Replayer {
	t.Helper()
	r, err := NewReplayer(ReplayConfig{
		Machine:       PaperMachine(),
		Threads:       8,
		DataStructure: dsName,
		Directed:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// shadowNames derives from the ds registry, so registering a structure
// without a shadow model fails these batteries instead of being silently
// skipped (NewReplayer errors on a missing shadow).
var shadowNames = ds.Names()

func randomBatch(seed int64, size, nodes int) graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := make(graph.Batch, size)
	for i := range b {
		b[i] = graph.Edge{
			Src:    graph.NodeID(rng.Intn(nodes)),
			Dst:    graph.NodeID(rng.Intn(nodes)),
			Weight: 1,
		}
	}
	return b
}

// TestShadowAdjacencyMatches checks every shadow reproduces the unique
// adjacency of the real ingestion (same dedup rule).
func TestShadowAdjacencyMatches(t *testing.T) {
	for _, name := range shadowNames {
		r := testReplayer(t, name)
		oracle := graph.NewOracle(true)
		for i := 0; i < 4; i++ {
			b := randomBatch(int64(i), 800, 120)
			r.ReplayUpdate(b)
			oracle.Update(b)
		}
		for v := 0; v < oracle.NumNodes(); v++ {
			want := oracle.Out(graph.NodeID(v))
			got := r.in.traverse(r.m, 0, graph.NodeID(v)) // in copy stores reversed...
			_ = got
			outGot := r.out.traverse(r.m, 0, graph.NodeID(v))
			if len(outGot) != len(want) {
				t.Fatalf("%s: vertex %d out degree %d want %d", name, v, len(outGot), len(want))
			}
			seen := map[graph.NodeID]bool{}
			for _, nb := range outGot {
				if seen[nb] {
					t.Fatalf("%s: duplicate shadow neighbor", name)
				}
				seen[nb] = true
			}
			for _, nb := range want {
				if !seen[nb.ID] {
					t.Fatalf("%s: missing shadow neighbor %d of %d", name, nb.ID, v)
				}
			}
		}
		r.m.DrainPhase()
	}
}

// TestReplayUpdateEmitsTraffic sanity-checks traffic volume: every edge
// ingest must touch memory, and bigger batches mean more accesses.
func TestReplayUpdateEmitsTraffic(t *testing.T) {
	for _, name := range shadowNames {
		r := testReplayer(t, name)
		small := r.ReplayUpdate(randomBatch(1, 200, 100))
		large := r.ReplayUpdate(randomBatch(2, 2000, 100))
		if small.Accesses < 2*200 { // two copies
			t.Errorf("%s: implausibly few accesses %d for 200 edges", name, small.Accesses)
		}
		if large.Accesses <= small.Accesses {
			t.Errorf("%s: larger batch produced fewer accesses", name)
		}
		if small.Instructions == 0 {
			t.Errorf("%s: no instructions charged", name)
		}
	}
}

// TestComputeReusesUpdateLines reproduces the Fig 10 mechanism: the
// compute phase, running right after the update phase, must observe a
// higher LLC hit ratio than the update phase because it re-reads the edge
// data the update just brought in.
func TestComputeReusesUpdateLines(t *testing.T) {
	for _, name := range shadowNames {
		r := testReplayer(t, name)
		var upd, cmp Traffic
		for i := 0; i < 6; i++ {
			b := randomBatch(int64(i), 1500, 3000)
			upd.Add(r.ReplayUpdate(b))
			aff := affectedOf(b)
			cmp.Add(r.ReplayCompute(aff, ComputeTrace{Incremental: true, ProcessedBudget: 4000}))
		}
		if cmp.LLCHitRatio() <= upd.LLCHitRatio() {
			t.Errorf("%s: compute LLC hit ratio %.3f should exceed update's %.3f",
				name, cmp.LLCHitRatio(), upd.LLCHitRatio())
		}
	}
}

// degreeCounter counts the degree queries replayed against a shadow.
type degreeCounter struct {
	shadow
	queries int
}

func (c *degreeCounter) degree(m *Machine, thread int, v graph.NodeID) {
	c.queries++
	c.shadow.degree(m, thread, v)
}

// TestReplayComputeDegreePerVertex pins the PageRank address model to the
// contribution-vector kernels: a recomputed vertex costs one degree query
// and one contribution write however many in-neighbors it has, and each
// in-neighbor costs one read, of its contribution instead of its property.
func TestReplayComputeDegreePerVertex(t *testing.T) {
	for _, name := range shadowNames {
		r := testReplayer(t, name)
		b := randomBatch(3, 4000, 300) // ~13 in-edges per vertex
		r.ReplayUpdate(b)
		dc := &degreeCounter{shadow: r.out}
		r.out = dc
		n := uint64(r.numNodes)

		plain := r.ReplayCompute(nil, ComputeTrace{})
		if dc.queries != 0 {
			t.Fatalf("%s: %d degree queries without NeedsDegree", name, dc.queries)
		}
		sweep := r.ReplayCompute(nil, ComputeTrace{NeedsDegree: true})
		if uint64(dc.queries) != n {
			t.Errorf("%s: FS sweep over %d vertices replayed %d degree queries, want one per vertex", name, n, dc.queries)
		}
		// Same reads per in-neighbor; per vertex, a contribution write
		// and at least one access for the degree query.
		if extra := sweep.Accesses - plain.Accesses; extra < 2*n || extra > 8*n {
			t.Errorf("%s: NeedsDegree added %d accesses over %d vertices, want a small multiple of |V| (not of |E| = %d)",
				name, extra, n, len(b))
		}

		dc.queries = 0
		const budget = 50
		r.ReplayCompute(affectedOf(b), ComputeTrace{Incremental: true, NeedsDegree: true, ProcessedBudget: budget})
		if dc.queries != budget {
			t.Errorf("%s: INC replay of %d recomputations issued %d degree queries", name, budget, dc.queries)
		}
	}
}

func affectedOf(b graph.Batch) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, e := range b {
		if !seen[e.Src] {
			seen[e.Src] = true
			out = append(out, e.Src)
		}
		if !seen[e.Dst] {
			seen[e.Dst] = true
			out = append(out, e.Dst)
		}
	}
	return out
}

func TestReplayerUnknownDS(t *testing.T) {
	if _, err := NewReplayer(ReplayConfig{Machine: PaperMachine(), DataStructure: "nope"}); err == nil {
		t.Fatal("expected error for unknown data structure")
	}
}

func TestUndirectedReplayerSharesShadow(t *testing.T) {
	r, err := NewReplayer(ReplayConfig{
		Machine:       PaperMachine(),
		Threads:       4,
		DataStructure: "adjshared",
		Directed:      false,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ReplayUpdate(graph.Batch{{Src: 1, Dst: 2, Weight: 1}})
	out := r.out.traverse(r.m, 0, 1)
	in := r.in.traverse(r.m, 0, 2)
	if len(out) != 1 || out[0] != 2 || len(in) != 1 || in[0] != 1 {
		t.Fatalf("undirected shadow adjacency wrong: out=%v in=%v", out, in)
	}
}
