package core_test

import (
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

func servingCfg() core.PipelineConfig {
	cfg := pipelineCfg("adjshared", "cc", compute.INC)
	cfg.ServeQueries = true
	return cfg
}

// sortedRun copies and ID-sorts an adjacency run so structures with
// insertion-ordered runs compare against the oracle's sorted ones.
func sortedRun(run []graph.Neighbor) []graph.Neighbor {
	out := append([]graph.Neighbor(nil), run...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestEpochLifecycle walks publish→pin→advance→release with ComputeView
// set ("view") and left off ("export": serving attaches the view anyway,
// so both publish the mirror), checking every pinned epoch against a
// sequential oracle.
func TestEpochLifecycle(t *testing.T) {
	for _, view := range []bool{true, false} {
		view := view
		t.Run(map[bool]string{true: "view", false: "export"}[view], func(t *testing.T) {
			cfg := servingCfg()
			cfg.ComputeView = view
			p, err := core.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Before the first batch: enabled but nothing published.
			if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
				t.Fatalf("AcquireQuery before first batch: %v, want ErrNoEpoch", err)
			}

			oracle := graph.NewOracle(true)
			stream := crosscheck.NewStream(crosscheck.StreamConfig{
				Seed: 7, Batches: 6, BatchSize: 150, NumNodes: 48, Directed: true,
			})
			var pinned *core.QueryHandle
			var pinnedFP uint64
			for bi, st := range stream {
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: st.Adds}); err != nil {
					t.Fatal(err)
				}
				oracle.Update(st.Adds)

				h, err := p.AcquireQuery()
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				if got, want := h.Epoch(), uint64(bi+1); got != want {
					t.Fatalf("batch %d: epoch %d, want %d", bi, got, want)
				}
				if h.Batch() != bi {
					t.Fatalf("batch %d: handle reports batch %d", bi, h.Batch())
				}
				if h.Staleness() != 0 {
					t.Fatalf("batch %d: fresh handle staleness %d", bi, h.Staleness())
				}
				if h.NumNodes() != oracle.NumNodes() {
					t.Fatalf("batch %d: %d nodes, oracle %d", bi, h.NumNodes(), oracle.NumNodes())
				}
				if h.NumEdges() != oracle.NumEdges() {
					t.Fatalf("batch %d: %d edges, oracle %d", bi, h.NumEdges(), oracle.NumEdges())
				}
				for v := 0; v < oracle.NumNodes(); v++ {
					id := graph.NodeID(v)
					got := sortedRun(h.Out(id))
					want := oracle.Out(id)
					if len(got) != len(want) {
						t.Fatalf("batch %d vertex %d: %d out-neighbors, oracle %d", bi, v, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || got[i].Weight != want[i].Weight {
							t.Fatalf("batch %d vertex %d: neighbor %d is %v, oracle %v", bi, v, i, got[i], want[i])
						}
					}
					if h.InDegree(id) != oracle.InDegree(id) {
						t.Fatalf("batch %d vertex %d: in-degree %d, oracle %d", bi, v, h.InDegree(id), oracle.InDegree(id))
					}
				}
				// The published property vector is the engine's at that batch.
				if vals := h.Values(); len(vals) != h.NumNodes() {
					t.Fatalf("batch %d: %d values for %d nodes", bi, len(vals), h.NumNodes())
				}
				if bi == 2 {
					// Hold this epoch across the rest of the stream.
					pinned = h
					pinnedFP = h.Snapshot().Fingerprint()
					continue
				}
				if err := h.ReleaseChecked(); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
			}

			// The held epoch must have aged but stayed bit-identical.
			if got, want := pinned.Staleness(), uint64(len(stream)-3); got != want {
				t.Fatalf("pinned staleness %d, want %d", got, want)
			}
			if got := pinned.Snapshot().Fingerprint(); got != pinnedFP {
				t.Fatalf("pinned epoch scribbled: fingerprint %#x -> %#x", pinnedFP, got)
			}
			if err := pinned.ReleaseChecked(); err != nil {
				t.Fatal(err)
			}
			if pins := p.Epochs().Stats().Pins; pins != 0 {
				t.Fatalf("%d pins outstanding after release", pins)
			}
		})
	}
}

func TestAcquireQueryDisabled(t *testing.T) {
	p, err := core.NewPipeline(pipelineCfg("adjshared", "cc", compute.INC))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrQueriesOff) {
		t.Fatalf("AcquireQuery without ServeQueries: %v, want ErrQueriesOff", err)
	}
	if _, err := core.StartQueryLoad(p, core.QueryLoadConfig{}); !errors.Is(err, core.ErrQueriesOff) {
		t.Fatalf("StartQueryLoad without ServeQueries: %v, want ErrQueriesOff", err)
	}
	if p.Epochs() != nil {
		t.Fatal("Epochs() non-nil without ServeQueries")
	}
}

// TestCloseWithPinnedHandle verifies Close stops hand-out while handles
// already pinned keep reading valid immutable state.
func TestCloseWithPinnedHandle(t *testing.T) {
	p, err := core.NewPipeline(servingCfg())
	if err != nil {
		t.Fatal(err)
	}
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
		t.Fatalf("AcquireQuery after Close: %v, want ErrNoEpoch", err)
	}
	if h.NumNodes() != 3 || h.OutDegree(0) != 1 {
		t.Fatal("pinned handle lost data after Close")
	}
	if _, ok := h.HasEdge(1, 2); !ok {
		t.Fatal("pinned handle lost edge after Close")
	}
	if err := h.ReleaseChecked(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochBufferReuse pins down both halves of the reclamation protocol:
// with no readers the double buffer is reclaimed (zero-reader fast path,
// no drops) and publication rotates through two property vectors; with a
// reader holding the spare's owner the writer drops the buffers — index
// and vector — and the held epoch survives.
func TestEpochBufferReuse(t *testing.T) {
	batchAt := func(round int) graph.Batch {
		var b graph.Batch
		for src := 0; src < 24; src++ {
			b = append(b, graph.Edge{
				Src:    graph.NodeID(src),
				Dst:    graph.NodeID((src + 1 + round) % 24),
				Weight: graph.Weight(1 + round),
			})
		}
		return b
	}

	// No readers: every rebuild after the second reuses the spare.
	p, err := core.NewPipeline(servingCfg())
	if err != nil {
		t.Fatal(err)
	}
	valuesAt := func(p *core.Pipeline) *float64 {
		h, err := p.AcquireQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		return &h.Values()[0]
	}
	var vectors []*float64
	for r := 0; r < 6; r++ {
		p.Process(batchAt(r))
		vectors = append(vectors, valuesAt(p))
	}
	for r := 2; r < len(vectors); r++ {
		if vectors[r] != vectors[r-2] || vectors[r] == vectors[r-1] {
			t.Fatalf("epoch %d publishes vector %p; epochs %d and %d published %p and %p — want the drained one reused", r+1, vectors[r], r-1, r, vectors[r-2], vectors[r-1])
		}
	}
	st := p.Epochs().Stats()
	p.Close()
	if st.Reclaimed == 0 {
		t.Fatalf("no buffers reclaimed with zero readers: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("%d buffers dropped with zero readers", st.Dropped)
	}

	// A held handle forces the writer onto the drop path.
	p, err = core.NewPipeline(servingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(batchAt(0))
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	fp := h.Snapshot().Fingerprint()
	for r := 1; r < 4; r++ {
		p.Process(batchAt(r))
		if valuesAt(p) == &h.Values()[0] {
			t.Fatalf("epoch %d was published into the property vector of a pinned epoch", r+1)
		}
	}
	st = p.Epochs().Stats()
	if st.Dropped == 0 {
		t.Fatalf("writer never dropped buffers despite a pinned epoch: %+v", st)
	}
	if got := h.Snapshot().Fingerprint(); got != fp {
		t.Fatalf("held epoch scribbled while writer advanced: %#x -> %#x", fp, got)
	}
	if err := h.ReleaseChecked(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryHandleFrozen runs a full algorithm on a pinned epoch through
// the ds.Graph adapter — the temporal-analytics use of a handle.
func TestQueryHandleFrozen(t *testing.T) {
	p, err := core.NewPipeline(servingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 3, Dst: 4, Weight: 1}})
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	fg := h.Frozen()
	if fg.NumNodes() != h.NumNodes() {
		t.Fatalf("frozen graph has %d nodes, handle %d", fg.NumNodes(), h.NumNodes())
	}
	var buf []graph.Neighbor
	if got := len(fg.OutNeigh(0, buf)); got != 1 {
		t.Fatalf("frozen OutNeigh(0) has %d records, want 1", got)
	}
}

// TestQueryLoadLeak asserts Stop joins every reader goroutine.
func TestQueryLoadLeak(t *testing.T) {
	p, err := core.NewPipeline(servingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})

	before := runtime.NumGoroutine()
	ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	stats := ql.Stop()
	if stats.Violations != 0 {
		t.Fatalf("violations on a quiescent graph: %s", stats.FirstViolation)
	}
	if stats.Queries == 0 {
		t.Fatal("readers served no queries")
	}
	// Allow the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("query load leaked goroutines: %d before, %d after", before, after)
	}
}
