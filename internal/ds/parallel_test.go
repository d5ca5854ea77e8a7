package ds

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sagabench/internal/graph"
)

// forEachShard is the shared-style split AS and Stinger ingest and delete
// a batch with: graph.UniformCuts of the edges into at most `threads`
// contiguous shards, run through graph.ParallelRanges.
func forEachShard(edges []graph.Edge, threads int, fn func(shard []graph.Edge)) {
	graph.ParallelRanges(graph.UniformCuts(nil, len(edges), threads), func(_, lo, hi int) {
		fn(edges[lo:hi])
	})
}

func TestForEachShardCoversAllEdges(t *testing.T) {
	edges := make([]graph.Edge, 103)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.NodeID(i)}
	}
	var mu sync.Mutex
	seen := map[graph.NodeID]int{}
	calls := 0
	forEachShard(edges, 8, func(shard []graph.Edge) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		for _, e := range shard {
			seen[e.Src]++
		}
	})
	if calls > 8 {
		t.Errorf("more shards than threads: %d", calls)
	}
	if len(seen) != len(edges) {
		t.Fatalf("covered %d/%d edges", len(seen), len(edges))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("edge %d visited %d times", v, n)
		}
	}
}

func TestForEachShardSingleThread(t *testing.T) {
	edges := make([]graph.Edge, 5)
	calls := 0
	forEachShard(edges, 1, func(shard []graph.Edge) {
		calls++
		if len(shard) != 5 {
			t.Errorf("shard size %d", len(shard))
		}
	})
	if calls != 1 {
		t.Errorf("calls=%d want 1", calls)
	}
}

func TestForEachShardMoreThreadsThanEdges(t *testing.T) {
	edges := make([]graph.Edge, 3)
	var total atomic.Int64
	forEachShard(edges, 16, func(shard []graph.Edge) { total.Add(int64(len(shard))) })
	if total.Load() != 3 {
		t.Errorf("total=%d want 3", total.Load())
	}
}

func TestGroupByChunkOwnership(t *testing.T) {
	const chunks = 7
	edges := make([]graph.Edge, 211)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.NodeID(i * 13 % 97), Dst: graph.NodeID(i)}
	}
	var mu sync.Mutex
	count := 0
	GroupByChunk(edges, chunks, func(chunk int, bucket []graph.Edge) {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range bucket {
			if int(e.Src)%chunks != chunk {
				t.Errorf("edge src %d in chunk %d", e.Src, chunk)
			}
			count++
		}
	})
	if count != len(edges) {
		t.Fatalf("delivered %d/%d edges", count, len(edges))
	}
}

func TestGroupByChunkPreservesOrder(t *testing.T) {
	edges := []graph.Edge{
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 2},
	}
	GroupByChunk(edges, 4, func(chunk int, bucket []graph.Edge) {
		if chunk != 2 {
			t.Errorf("unexpected chunk %d", chunk)
		}
		for i, e := range bucket {
			if int(e.Dst) != i {
				t.Errorf("order broken at %d: %v", i, e)
			}
		}
	})
}

func TestGroupByChunkSingleChunk(t *testing.T) {
	edges := make([]graph.Edge, 4)
	calls := 0
	GroupByChunk(edges, 1, func(chunk int, bucket []graph.Edge) {
		calls++
		if chunk != 0 || len(bucket) != 4 {
			t.Errorf("chunk=%d len=%d", chunk, len(bucket))
		}
	})
	if calls != 1 {
		t.Errorf("calls=%d want 1", calls)
	}
}

// Property: chunk grouping partitions the batch for arbitrary inputs.
func TestGroupByChunkProperty(t *testing.T) {
	f := func(srcs []uint16, chunksRaw uint8) bool {
		chunks := int(chunksRaw%16) + 1
		edges := make([]graph.Edge, len(srcs))
		for i, s := range srcs {
			edges[i] = graph.Edge{Src: graph.NodeID(s)}
		}
		var total atomic.Int64
		ok := atomic.Bool{}
		ok.Store(true)
		GroupByChunk(edges, chunks, func(chunk int, bucket []graph.Edge) {
			for _, e := range bucket {
				if ChunkOf(e.Src, chunks) != chunk {
					ok.Store(false)
				}
			}
			total.Add(int64(len(bucket)))
		})
		return ok.Load() && total.Load() == int64(len(edges))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGroupByChunkReraisesPanic: a bucket that panics, whether it runs on
// a spawned worker or is the last bucket (run on the caller's goroutine),
// surfaces on the caller with its value after every other bucket has been
// ingested.
func TestGroupByChunkReraisesPanic(t *testing.T) {
	const chunks = 4
	edges := make([]graph.Edge, 40)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.NodeID(i)}
	}
	for _, bad := range []int{0, chunks - 1} {
		var finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			GroupByChunk(edges, chunks, func(chunk int, bucket []graph.Edge) {
				if chunk == bad {
					panic(chunk)
				}
				finished.Add(int32(len(bucket)))
			})
			return nil
		}()
		if got != bad {
			t.Errorf("bucket %d panicked, caller recovered %v", bad, got)
		}
		if n := int(finished.Load()); n != len(edges)-len(edges)/chunks {
			t.Errorf("bucket %d panicked: %d edges of the other buckets ingested when it surfaced, want %d", bad, n, len(edges)-len(edges)/chunks)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("definitely-not-registered", Config{}); err == nil {
		t.Error("expected error for unknown structure")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on unknown structure")
		}
	}()
	MustNew("definitely-not-registered", Config{})
}

func TestUpdateProfileHelpers(t *testing.T) {
	p := UpdateProfile{EdgesIngested: 10, LockConflicts: 5}
	p2 := UpdateProfile{ChunkLoads: []uint64{30, 10, 10, 10}}
	if got := p2.Imbalance(); got != 2 {
		t.Errorf("Imbalance=%v want 2 (30 vs mean 15)", got)
	}
	if (&UpdateProfile{}).Imbalance() != 1 {
		t.Error("empty imbalance should be 1")
	}
	loads := p2.ChunkLoads
	var sum UpdateProfile
	p.MoveTo(&sum)
	p2.MoveTo(&sum)
	if sum.EdgesIngested != 10 || sum.LockConflicts != 5 || len(sum.ChunkLoads) != 4 || sum.ChunkLoads[0] != 30 {
		t.Errorf("MoveTo merged wrong: %+v", sum)
	}
	if p.EdgesIngested != 0 || p.LockConflicts != 0 {
		t.Errorf("MoveTo left counts behind: %+v", p)
	}
	if &p2.ChunkLoads[0] != &loads[0] || p2.ChunkLoads[0] != 0 {
		t.Errorf("MoveTo must zero the source's chunk loads in place, got %v", p2.ChunkLoads)
	}
	// A second merge into the grown destination sums index-wise and
	// allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() {
		p2.ChunkLoads[1] = 1
		p2.MoveTo(&sum)
	}); allocs != 0 {
		t.Errorf("MoveTo into a grown destination allocates %.1f times", allocs)
	}
	if sum.ChunkLoads[1] != 10+11 {
		t.Errorf("chunk 1 = %d after 11 merges of 1, want 21", sum.ChunkLoads[1])
	}
}
