package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

// publishStream is the stream of the published-values test: insert-only
// batches over 400 vertices that repeat edges with new weights, then
// batches that also delete live edges (the monotone INC engines trim and
// reset values), then one batch that grows the vertex space to 480, then
// more of both kinds. Vertex isolated joins vertex 0's component in batch
// 4 and leaves it in batch 6, when trim resets it to a value the next
// phase does not change; no other edge touches it before batch 8.
func publishStream(seed int64) []core.MixedBatch {
	const isolated = 399
	rng := rand.New(rand.NewSource(seed))
	var live []graph.Edge
	var out []core.MixedBatch
	for b := 0; b < 14; b++ {
		nodes := isolated
		if b >= 8 {
			nodes = 480
		}
		var mb core.MixedBatch
		for i := 0; i < 12; i++ {
			e := graph.Edge{Src: graph.NodeID(rng.Intn(nodes)), Dst: graph.NodeID(rng.Intn(nodes))}
			if (b == 0 || b == 8) && i == 0 {
				e.Src = graph.NodeID(nodes - 1) // the vertex space, and the batch that grows it
			}
			if len(live) > 0 && rng.Intn(4) == 0 {
				e = live[rng.Intn(len(live))] // a live edge, re-inserted
			}
			e.Weight = graph.Weight(1 + rng.Intn(9))
			mb.Adds = append(mb.Adds, e)
			live = append(live, e)
		}
		if b == 4 {
			mb.Adds = append(mb.Adds, graph.Edge{Src: 0, Dst: isolated, Weight: 1})
		}
		if b >= 4 && b%3 != 2 {
			for i := 0; i < 4 && len(live) > 0; i++ {
				k := rng.Intn(len(live))
				mb.Dels = append(mb.Dels, live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if b == 6 {
			mb.Dels = append(mb.Dels, graph.Edge{Src: 0, Dst: isolated, Weight: 1})
		}
		out = append(out, mb)
	}
	return out
}

// publishEngines are the engines the published-values test runs: the two
// INC engines whose publication can follow their changes, and an FS one.
var publishEngines = []struct {
	alg   string
	model compute.Model
}{{"cc", compute.INC}, {"pr", compute.INC}, {"cc", compute.FS}}

// sameBits reports the first slot where two property vectors differ bit
// for bit, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkLatest pins the latest epoch and asserts it is batch `batch`'s and
// its values equal the engine's bit for bit.
func checkLatest(t *testing.T, p *core.Pipeline, batch int) {
	t.Helper()
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatalf("batch %d: %v", batch, err)
	}
	defer h.Release()
	if h.Batch() != batch {
		t.Fatalf("latest epoch reflects batch %d, want %d", h.Batch(), batch)
	}
	got, want := h.Values(), p.Engine().Values()
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("batch %d: published values differ from the engine's at vertex %d (%d published, %d in the engine)",
			batch, i, len(got), len(want))
	}
	if err := h.Snapshot().CheckConsistent(); err != nil {
		t.Fatalf("batch %d: %v", batch, err)
	}
}

// pinnedEpoch is a snapshot a test holds, with what it read at pin time.
type pinnedEpoch struct {
	h      *core.QueryHandle
	vals   []float64
	fp     uint64
	pinned int // the batch whose epoch it is
}

func pin(t *testing.T, p *core.Pipeline, batch int) *pinnedEpoch {
	t.Helper()
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	return &pinnedEpoch{h: h, vals: slices.Clone(h.Values()), fp: h.Snapshot().Fingerprint(), pinned: batch}
}

// check asserts the pinned snapshot still reads what it read at pin time.
func (e *pinnedEpoch) check(t *testing.T, batch int) {
	t.Helper()
	if i := sameBits(e.h.Values(), e.vals); i >= 0 {
		t.Fatalf("batch %d: epoch of batch %d pinned, its value at vertex %d changed", batch, e.pinned, i)
	}
	if fp := e.h.Snapshot().Fingerprint(); fp != e.fp {
		t.Fatalf("batch %d: epoch of batch %d pinned, its fingerprint moved %#x -> %#x", batch, e.pinned, e.fp, fp)
	}
}

// TestPublishedValuesMatchEngine holds every published epoch's property
// vector to the engine's, bit for bit, on a served view pipeline: through
// insert-only batches, batches whose deletes make the monotone engines
// reset values, a batch that grows the vertex space, and a reader that
// pins an epoch across three publishes, so the publish two batches later
// finds the spare vector still pinned and must not write it. The pinned
// epoch's values and CSR must not move until it is released.
func TestPublishedValuesMatchEngine(t *testing.T) {
	for _, eng := range publishEngines {
		for _, dsName := range []string{"hybrid", "adjshared"} {
			t.Run(fmt.Sprintf("%s/%s-%s", dsName, eng.alg, eng.model), func(t *testing.T) {
				cfg := pipelineCfg(dsName, eng.alg, eng.model)
				cfg.ServeQueries = true
				cfg.Compute = durOpts
				p, err := core.NewPipeline(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				var held *pinnedEpoch
				patched := 0
				for bi, mb := range publishStream(21) {
					if _, err := p.ProcessMixed(mb); err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					checkLatest(t, p, bi)
					if r := p.LastBatch(); r.EpochValues < r.Nodes {
						patched++
					}
					if held != nil {
						held.check(t, bi)
						if bi == held.pinned+3 {
							held.h.Release()
							held = nil
						}
					}
					if bi == 9 {
						held = pin(t, p, bi)
					}
				}
				if held != nil {
					held.h.Release()
				}
				if st := p.Epochs().Stats(); st.Dropped == 0 {
					t.Fatalf("no publish found its spare pinned (stats %+v); the pin did not exercise the refusal", st)
				}
				// An INC engine's publish two batches after a full copy
				// writes only what changed, unless the vertex space grew or
				// the spare was pinned; an FS engine's never does.
				if (eng.model == compute.INC) != (patched > 0) {
					t.Fatalf("%d publishes wrote only the changed values", patched)
				}
			})
		}
	}
}

// TestPublishedValuesAcrossRestart is TestPublishedValuesMatchEngine under
// a supervisor whose durable pipeline stalls mid-stream: the watchdog
// replaces the instance, the replacement recovers the stream from the
// WAL, and from then on its epochs must equal its engine just as the
// first instance's did.
func TestPublishedValuesAcrossRestart(t *testing.T) {
	for _, eng := range publishEngines {
		t.Run(fmt.Sprintf("%s-%s", eng.alg, eng.model), func(t *testing.T) {
			cfg := durableCfg(t.TempDir(), eng.alg, &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
			cfg.DataStructure, cfg.Model, cfg.ServeQueries = "hybrid", eng.model, true
			cfg.Faults = fault.MustParseSchedule("stall(compute,7,300ms)", 5)
			sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg, PhaseDeadline: 60 * time.Millisecond, MaxRestarts: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sup.Close()
			for bi, mb := range publishStream(33) {
				if err := sup.Submit(mb); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				// Without checkpoints a recovery replays the whole WAL, so
				// the live instance's epoch of batch bi is its bi-th.
				p := awaitEpoch(t, sup, bi)
				checkLatest(t, p, bi)
			}
			if rep := sup.Report(); rep.Restarts == 0 {
				t.Fatal("the stalled compute never restarted the pipeline")
			}
		})
	}
}

// awaitEpoch waits until the supervisor's live instance has published the
// epoch of batch bi and returns that instance. Its batch is then done: a
// supervised stream offers the next batch only after Submit.
func awaitEpoch(t *testing.T, sup *core.Supervisor, bi int) *core.Pipeline {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		p := sup.Pipeline()
		if s := p.Epochs().Pin(); s != nil {
			batch := s.Batch
			p.Epochs().Release(s)
			if batch == bi {
				return p
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("batch %d was never published", bi)
	return nil
}
