package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// durOpts pins the compute options so the recovered pipeline and the
// sequential reference converge to identical values.
var durOpts = compute.Options{Threads: 2, PRTolerance: 1e-12, PRMaxIters: 200, Epsilon: 1e-12}

func durableStream(batches int) crosscheck.Stream {
	return crosscheck.NewStream(crosscheck.StreamConfig{
		Seed: 11, Batches: batches, BatchSize: 80, NumNodes: 48,
		Directed: true, Deletes: true,
	})
}

// streamOracle replays the stream sequentially, skipping the given batch
// indices (poisoned batches the pipeline must exclude too).
func streamOracle(stream crosscheck.Stream, skip map[int]bool) *graph.Oracle {
	o := graph.NewOracle(true)
	for i, s := range stream {
		if skip[i] {
			continue
		}
		o.Update(s.Adds)
		o.Delete(s.Dels)
	}
	return o
}

func durableCfg(dir, alg string, dcfg *durable.Config) core.PipelineConfig {
	dcfg.Dir = dir
	return core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     alg,
		Model:         compute.INC,
		Directed:      true,
		Threads:       2,
		Compute:       durOpts,
		Durable:       dcfg,
	}
}

// verifyAgainstOracle cold-opens the durability directory and checks the
// recovered adjacency and vertex values match the sequential oracle.
func verifyAgainstOracle(t *testing.T, cfg core.PipelineConfig, oracle *graph.Oracle, wantSeq uint64) {
	t.Helper()
	cold := cfg
	dcfg := *cfg.Durable
	dcfg.Crash = nil
	dcfg.CheckpointEvery = -1
	cold.Durable = &dcfg
	p, err := core.NewPipeline(cold)
	if err != nil {
		t.Fatalf("cold restart: %v", err)
	}
	defer p.Close()
	if got := p.DurableSeq(); got != wantSeq {
		t.Fatalf("recovered through seq %d, want %d", got, wantSeq)
	}
	for _, d := range ds.DiffOracle(p.Graph(), oracle, 4) {
		t.Errorf("topology: %s", d)
	}
	want := compute.MustReference(cfg.Algorithm, oracle, durOpts)
	if v := compute.DiffValues(p.Values(), want, compute.Tolerance(cfg.Algorithm)); v >= 0 {
		t.Fatalf("values diverge at vertex %d after recovery", v)
	}
}

// TestDurableEndToEnd streams batches through a durable pipeline with
// periodic checkpoints, then restarts cold and checks recovery rebuilds
// the exact adjacency and vertex values.
func TestDurableEndToEnd(t *testing.T) {
	stream := durableStream(12)
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: 4})
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, cfg, streamOracle(stream, nil), uint64(len(stream)))
}

// TestDurableResume closes a durable pipeline mid-stream and checks a
// restart reports the resume point and the completed stream matches the
// oracle.
func TestDurableResume(t *testing.T) {
	stream := durableStream(8)
	cfg := durableCfg(t.TempDir(), "cc", &durable.Config{Fsync: durable.FsyncInterval, CheckpointEvery: 3})
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream[:5] {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.DurableSeq(); got != 5 {
		t.Fatalf("resume point %d, want 5", got)
	}
	for _, s := range stream[5:] {
		if _, err := p2.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, cfg, streamOracle(stream, nil), uint64(len(stream)))
}

// processArmed drives the remaining stream through an armed pipeline,
// converting the simulated kill into a crash result the way a real driver
// experiences a dead process.
func processArmed(cfg core.PipelineConfig, stream crosscheck.Stream) (crash *durable.Crash) {
	var p *core.Pipeline
	defer func() {
		if p != nil {
			p.Abandon()
		}
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				crash = &c
				return
			}
			panic(r)
		}
	}()
	p, err := core.NewPipeline(cfg)
	if err != nil {
		panic(err)
	}
	for i := int(p.DurableSeq()); i < len(stream); i++ {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: stream[i].Adds, Dels: stream[i].Dels}); err != nil {
			panic(err)
		}
	}
	if err := p.Close(); err != nil {
		panic(err)
	}
	return nil
}

// TestDurableCrashPointMatrix kills the pipeline at every registered
// crash point — including mid-replay, by seeding an unapplied WAL tail
// first — then recovers, finishes the stream, and checks the recovered
// state against the sequential oracle.
func TestDurableCrashPointMatrix(t *testing.T) {
	stream := durableStream(10)
	oracle := streamOracle(stream, nil)
	for _, point := range durable.CrashPoints {
		t.Run(string(point), func(t *testing.T) {
			dir := t.TempDir()
			// Phase 1: log four batches with no checkpoints and abandon the
			// pipeline, leaving a WAL tail that the next open must replay.
			seed := durableCfg(dir, "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
			p, err := core.NewPipeline(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stream[:4] {
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
					t.Fatal(err)
				}
			}
			p.Abandon()

			// Phase 2: arm the kill. CheckpointEvery 1 guarantees the
			// checkpoint points fire on the first post-recovery batch.
			armed := durableCfg(dir, "pr", &durable.Config{
				Fsync:           durable.FsyncAlways,
				CheckpointEvery: 1,
				Crash:           durable.CrashAt(point, 1),
			})
			crash := processArmed(armed, stream)
			if crash == nil {
				t.Fatalf("crash point %s never fired", point)
			}
			if crash.Point != point {
				t.Fatalf("crashed at %s, want %s", crash.Point, point)
			}

			// Phase 3: recover clean and finish the stream.
			clean := durableCfg(dir, "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: 3})
			p3, err := core.NewPipeline(clean)
			if err != nil {
				t.Fatalf("recovery after %s: %v", point, err)
			}
			for i := int(p3.DurableSeq()); i < len(stream); i++ {
				if _, err := p3.ProcessMixed(core.MixedBatch{Adds: stream[i].Adds, Dels: stream[i].Dels}); err != nil {
					t.Fatal(err)
				}
			}
			if err := p3.Close(); err != nil {
				t.Fatal(err)
			}
			verifyAgainstOracle(t, clean, oracle, uint64(len(stream)))
		})
	}
}

// TestDurablePoisonValidation feeds a malformed batch (NaN weight) and
// checks it is quarantined without consuming a sequence number while the
// stream keeps flowing, and that the .poison file replays.
func TestDurablePoisonValidation(t *testing.T) {
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{Adds: graph.Batch{{Src: 0, Dst: 1, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	poison := graph.Batch{{Src: 2, Dst: 3, Weight: graph.Weight(math.NaN())}}
	if _, err := p.ProcessMixed(core.MixedBatch{Adds: poison}); err != nil {
		t.Fatalf("poison batch must not error the stream: %v", err)
	}
	if got := p.DurableSeq(); got != 1 {
		t.Fatalf("validation reject consumed a sequence number: seq %d", got)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{Adds: graph.Batch{{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	files := p.PoisonFiles()
	if len(files) != 1 || filepath.Base(files[0]) != "invalid-000000.poison" {
		t.Fatalf("poison files %v", files)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := crosscheck.ReadReproFile(files[0])
	if err != nil {
		t.Fatalf("quarantine file is not replayable: %v", err)
	}
	if len(r.Stream) != 1 || len(r.Stream[0].Adds) != 1 || r.DS != "adjshared" {
		t.Fatalf("quarantined repro %+v", r)
	}
	// The NaN must survive the codec so the repro reproduces.
	if !math.IsNaN(float64(r.Stream[0].Adds[0].Weight)) {
		t.Fatalf("quarantined weight %v, want NaN", r.Stream[0].Adds[0].Weight)
	}
}

// TestQuarantineKeepsUnparseableReject plants an unparseable file where
// the first validation reject would go (a torn write, or a hand edit) and
// rejects a batch through MaxNodeID validation: the new reject must take
// the next free name and leave the earlier file's bytes alone.
func TestQuarantineKeepsUnparseableReject(t *testing.T) {
	dir := t.TempDir()
	garbage := []byte("sagafuzz repro v1\nds adjshared\nbatch\nadd 0 5") // torn mid-record
	first := filepath.Join(dir, "invalid-000000.poison")
	if err := os.WriteFile(first, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(durableCfg(dir, "cc", &durable.Config{Fsync: durable.FsyncNever, CheckpointEvery: -1, MaxNodeID: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{Adds: graph.Batch{{Src: 0, Dst: 500, Weight: 1}}}); err != nil {
		t.Fatalf("validation reject must not error the stream: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(first); err != nil || !bytes.Equal(got, garbage) {
		t.Fatalf("earlier reject overwritten: %q (%v)", got, err)
	}
	files := p.PoisonFiles()
	if len(files) != 1 || filepath.Base(files[0]) != "invalid-000001.poison" {
		t.Fatalf("poison files %v, want invalid-000001.poison", files)
	}
	r, err := crosscheck.ReadReproFile(files[0])
	if err != nil {
		t.Fatalf("new reject does not parse: %v", err)
	}
	if len(r.Stream) != 1 || len(r.Stream[0].Adds) != 1 || r.Stream[0].Adds[0].Dst != 500 {
		t.Fatalf("new reject holds %+v", r.Stream)
	}
}

// TestDurableApplyPoisonQuarantine injects a batch that passes validation
// but persistently fails to apply: it must be logged, retried, tombstoned,
// quarantined, and excluded from the recovered state — even across a cold
// restart with the failure still present.
func TestDurableApplyPoisonQuarantine(t *testing.T) {
	stream := durableStream(6)
	const poisonIdx = 2 // batch index 2 = seq 3
	probe := func(seq uint64, _, _ graph.Batch) error {
		if seq == poisonIdx+1 {
			return errors.New("injected apply failure")
		}
		return nil
	}
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: 2,
		MaxRetries:      1,
		RetryBackoff:    time.Microsecond,
		ApplyProbe:      probe,
	})
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.DurableSeq(); got != uint64(len(stream)) {
		t.Fatalf("stream stalled at seq %d after poison", got)
	}
	files := p.PoisonFiles()
	if len(files) != 1 || filepath.Base(files[0]) != "batch-000003.poison" {
		t.Fatalf("poison files %v, want batch-000003.poison", files)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart with the probe still failing: the tombstone must keep
	// the poison batch out of replay (no re-quarantine, no divergence).
	p2, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p2.PoisonFiles()); n != 0 {
		t.Fatalf("recovery re-replayed the tombstoned batch (%d new quarantines)", n)
	}
	oracle := streamOracle(stream, map[int]bool{poisonIdx: true})
	for _, d := range ds.DiffOracle(p2.Graph(), oracle, 4) {
		t.Errorf("topology: %s", d)
	}
	want := compute.MustReference("pr", oracle, durOpts)
	if v := compute.DiffValues(p2.Values(), want, compute.Tolerance("pr")); v >= 0 {
		t.Fatalf("values diverge at vertex %d", v)
	}
	p2.Close()
}

// TestRunRejectsDurable: the repeat-oriented measurement driver refuses a
// durable pipeline — each repeat would re-recover persisted state.
func TestRunRejectsDurable(t *testing.T) {
	cfg := pipelineCfg("adjshared", "cc", compute.INC)
	cfg.Durable = &durable.Config{Dir: t.TempDir()}
	for _, rc := range []core.RunConfig{
		{PipelineConfig: cfg, Edges: graph.Batch{{Src: 0, Dst: 1, Weight: 1}}, BatchSize: 1},
		{PipelineConfig: cfg, Dataset: gen.MustDataset("talk", gen.ProfileTiny)},
	} {
		if _, err := core.Run(context.Background(), rc); err == nil {
			t.Errorf("Run should reject a durable config (edges: %v)", rc.Edges != nil)
		}
	}
}

// BenchmarkProcessMixedBaseline / BenchmarkProcessMixedDurable measure the
// per-batch cost of the durability layer (FsyncNever isolates the WAL
// encode+write from disk sync latency). With Durable nil the batch path
// must not change at all.
func BenchmarkProcessMixedBaseline(b *testing.B) {
	benchMixed(b, nil)
}

func BenchmarkProcessMixedDurable(b *testing.B) {
	benchMixed(b, &durable.Config{Fsync: durable.FsyncNever, CheckpointEvery: -1})
}

func benchMixed(b *testing.B, dcfg *durable.Config) {
	cfg := core.PipelineConfig{
		DataStructure: "adjshared", Algorithm: "cc", Model: compute.INC,
		Directed: true, Threads: 2,
	}
	if dcfg != nil {
		dcfg.Dir = b.TempDir()
		cfg.Durable = dcfg
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := make(graph.Batch, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			v := graph.NodeID((i*64 + j) % 512)
			batch[j] = graph.Edge{Src: v, Dst: (v + 1) % 512, Weight: 1}
		}
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: batch}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Close()
}
