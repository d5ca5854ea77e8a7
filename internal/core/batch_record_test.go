package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// steadyAllocsParent is testing.AllocsPerRun of the loop below: what the
// data structure, the view and the engine allocate for one steady-state
// mixed batch — 17 at the commit before the stage runner, which must add
// nothing to it, and lowered to each measurement since (hybrid's per-batch
// tally became a store field: 12 → 10). It only goes down.
const steadyAllocsParent = 10

// steadyAllocsRecorded is steadyAllocs of small-durable's shape (hybrid,
// view, serve, INC CC, a recorder without an event sink): 18 at the
// commit before the structure's counts moved into the BatchRecord, when
// each batch still diffed a freshly copied cumulative profile, 14 since,
// 13 once the event stopped copying the workers' busy times (RecordBatch
// keeps no reference to it). It only goes down.
const steadyAllocsRecorded = 13

// TestProcessSteadyStateAllocs pins the runner's per-batch allocation
// budget with every observer off (nil recorder, nil tracer): the stage
// table, the BatchRecord and the hooks are pipeline-owned state, not
// per-batch garbage.
func TestProcessSteadyStateAllocs(t *testing.T) {
	got := steadyAllocs(t, core.PipelineConfig{
		DataStructure: "hybrid",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       1,
		ComputeView:   true,
	})
	if got > steadyAllocsParent {
		t.Fatalf("steady-state ProcessMixed allocates %v per batch, parent allocated %v", got, steadyAllocsParent)
	}
}

// TestProcessSteadyStateAllocsRecorded is the same budget with a
// telemetry recorder attached, in small-durable's shape: taking the
// structure's counts into the record allocates nothing per batch.
func TestProcessSteadyStateAllocsRecorded(t *testing.T) {
	for _, durableOn := range []bool{false, true} {
		cfg := core.PipelineConfig{
			DataStructure: "hybrid",
			Algorithm:     "cc",
			Model:         compute.INC,
			Directed:      true,
			Threads:       1,
			ComputeView:   true,
			ServeQueries:  true,
			Telemetry:     telemetry.NewRecorder(telemetry.NewRegistry(), nil),
		}
		if durableOn {
			cfg.Durable = &durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointEvery: -1}
		}
		if got := steadyAllocs(t, cfg); got > steadyAllocsRecorded {
			t.Errorf("durable=%v: steady-state ProcessMixed allocates %v per batch with a recorder, budget %v",
				durableOn, got, steadyAllocsRecorded)
		}
	}
}

// steadyAllocs warms a pipeline built from cfg up on a mixed stream, then
// reports testing.AllocsPerRun of one steady-state batch.
func steadyAllocs(t *testing.T, cfg core.PipelineConfig) float64 {
	t.Helper()
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	stream := viewMixedStream(5, 24, 64, 48)
	for _, mb := range stream {
		if _, err := p.ProcessMixed(mb); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: the same window is deleted and re-inserted, so every
	// batch does real ingest, delete, refresh and compute work on a graph
	// whose size no longer changes.
	window := stream[len(stream)-1].Adds
	flip := false
	return testing.AllocsPerRun(200, func() {
		mb := core.MixedBatch{Adds: window}
		if flip = !flip; flip {
			mb = core.MixedBatch{Dels: window}
		}
		if _, err := p.ProcessMixed(mb); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchRecordConsistency checks the one record every output is read
// from, batch by batch and in each shape of pipeline: exactly the stages
// that ran have a duration, the returned latencies are sums of them, the
// accessors that predate the record read the same numbers, and the
// emitted BatchEvent agrees with the record field for field.
func TestBatchRecordConsistency(t *testing.T) {
	var all []core.StageID
	for id := core.StageID(0); id < core.NumStages; id++ {
		all = append(all, id)
	}
	cases := []struct {
		name                 string
		view, serve, durable bool
		ran                  []core.StageID
	}{
		{name: "bare", ran: []core.StageID{core.StageUpdate, core.StageCompute}},
		{name: "view+serve", view: true, serve: true,
			ran: []core.StageID{core.StageUpdate, core.StageView, core.StageCompute, core.StagePublish}},
		{name: "durable", view: true, serve: true, durable: true, ran: all},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			reg := telemetry.NewRegistry()
			rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
			cfg := core.PipelineConfig{
				DataStructure: "hybrid",
				Algorithm:     "cc",
				Model:         compute.INC,
				Directed:      true,
				Threads:       2,
				ComputeView:   tc.view,
				ServeQueries:  tc.serve,
				Telemetry:     rec,
			}
			if tc.durable {
				cfg.Durable = &durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointEvery: 1}
			}
			p, err := core.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ran := map[core.StageID]bool{}
			for _, id := range tc.ran {
				ran[id] = true
			}
			var recs []core.BatchRecord
			for i, mb := range viewMixedStream(9, 6, 64, 48) {
				lat, err := p.ProcessMixed(mb)
				if err != nil {
					t.Fatal(err)
				}
				r := p.LastBatch()
				r.DS.ChunkLoads = append([]uint64(nil), r.DS.ChunkLoads...) // pipeline scratch
				recs = append(recs, r)
				for _, id := range all {
					if (r.Stage[id] > 0) != ran[id] {
						t.Fatalf("batch %d: stage %v took %v, ran=%v", i, id, r.Stage[id], ran[id])
					}
				}
				if !r.Applied || r.Err != nil || r.Quarantined != "" || r.Retries != 0 {
					t.Fatalf("batch %d: clean batch recorded as %+v", i, r)
				}
				if lat.Update != r.Stage[core.StageUpdate]+r.Stage[core.StageView] || lat.Compute != r.Stage[core.StageCompute] {
					t.Fatalf("batch %d: latency %+v is not the record's stages %v", i, lat, r.Stage)
				}
				if lat != r.Latency() {
					t.Fatalf("batch %d: latency %+v, record says %+v", i, lat, r.Latency())
				}
				if r.View != p.LastViewRefresh() {
					t.Fatalf("batch %d: record view %+v, LastViewRefresh %+v", i, r.View, p.LastViewRefresh())
				}
				if tc.serve && r.Epoch != p.Epochs().LatestEpoch() {
					t.Fatalf("batch %d: record epoch %d, manager at %d", i, r.Epoch, p.Epochs().LatestEpoch())
				}
				if r.WALSeq != p.DurableSeq() {
					t.Fatalf("batch %d: record WAL seq %d, pipeline at %d", i, r.WALSeq, p.DurableSeq())
				}
				if r.Adds != len(mb.Adds) || r.Dels != len(mb.Dels) || r.Nodes != p.Graph().NumNodes() {
					t.Fatalf("batch %d: record sizes %+v", i, r)
				}
				// Both copies ingest every add, and the chunked structure
				// reports one load per chunk.
				if r.DS.EdgesIngested != 2*uint64(r.Adds) || len(r.DS.ChunkLoads) != cfg.Threads {
					t.Fatalf("batch %d: record DS %+v for %d adds", i, r.DS, r.Adds)
				}
				if (r.WALBytes > 0) != tc.durable {
					t.Fatalf("batch %d: WAL record of %d bytes, durable=%v", i, r.WALBytes, tc.durable)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			evs, err := telemetry.ReadEvents(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != len(recs) {
				t.Fatalf("%d events for %d batches", len(evs), len(recs))
			}
			var walAppends, walBytes uint64
			for i, ev := range evs {
				r, es := recs[i], recs[i].Compute
				want := telemetry.BatchEvent{
					TimeUnixMS: ev.TimeUnixMS, DS: cfg.DataStructure, Alg: cfg.Algorithm, Model: string(cfg.Model),
					Applied: true, WALSeq: r.WALSeq, WALBytes: r.WALBytes, WALFsyncNS: r.WALFsync.Nanoseconds(),
					Batch: r.Index, Edges: r.Adds, Deletes: r.Dels, Nodes: r.Nodes,
					UpdateNS: r.Latency().Update.Nanoseconds(), ComputeNS: r.Latency().Compute.Nanoseconds(),
					Affected: r.Affected, Iterations: es.Iterations, Processed: es.Processed,
					EdgesTraversed: es.EdgesTraversed, Triggered: es.Triggered, Skipped: es.Skipped,
					TriggerFrac: es.TriggerFraction(), Epoch: r.Epoch,
					// Per-worker times alias engine scratch in the record.
					WorkerBusyNS: ev.WorkerBusyNS, WorkersUsed: ev.WorkersUsed, Straggler: ev.Straggler,
					DSEdgesIngested: r.DS.EdgesIngested, DSInserted: r.DS.Inserted, DSScanSteps: r.DS.ScanSteps,
					DSLockConflicts: r.DS.LockConflicts, DSMetaOps: r.DS.MetaOps, DSImbalance: r.DS.Imbalance(),
					DSTierPromotions: r.DS.TierPromotions, DSTierDemotions: r.DS.TierDemotions,
				}
				if r.WALBytes > 0 {
					walAppends++
					walBytes += uint64(r.WALBytes)
				}
				if tc.serve {
					// The epoch counters' deltas and pins are the manager's.
					want.EpochReclaimed, want.EpochDropped, want.EpochPins = ev.EpochReclaimed, ev.EpochDropped, ev.EpochPins
				}
				if tc.view {
					want.ViewRefreshed = true
					want.ViewNS = r.View.Duration.Nanoseconds()
					want.ViewDirtyFrac = r.View.DirtyFraction()
					want.ViewWritten, want.ViewFull = r.View.Written, r.View.Full
				}
				if !reflect.DeepEqual(ev, want) {
					t.Fatalf("batch %d: event\n%+v\nrecord implies\n%+v", i, ev, want)
				}
			}
			// The WAL counters are fed off the same records.
			if got := reg.Counter("saga_wal_appends_total", "").Value(); got != walAppends {
				t.Fatalf("saga_wal_appends_total = %d, records hold %d appends", got, walAppends)
			}
			if got := reg.Counter("saga_wal_bytes_total", "").Value(); got != walBytes {
				t.Fatalf("saga_wal_bytes_total = %d, records hold %d bytes", got, walBytes)
			}
		})
	}
}

// TestBatchRecordOfPoisonBatch: a quarantined batch leaves its own record
// behind — not applied, carrying the cause and the retries — even though
// the rebuild that follows replays earlier batches through the same
// runner, and the supervisor hands the same record out.
func TestBatchRecordOfPoisonBatch(t *testing.T) {
	stream := durableStream(3) // the last batch is the poison one
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		MaxRetries:      2,
		RetryBackoff:    time.Microsecond,
		ApplyProbe: func(seq uint64, _, _ graph.Batch) error {
			if seq == 3 {
				return errors.New("injected apply failure")
			}
			return nil
		},
	})
	sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sup, stream)
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	r := sup.LastBatch()
	if r.Applied || r.WALSeq != 3 || r.Retries != 2 || !strings.Contains(r.Quarantined, "injected apply failure") || r.Err != nil {
		t.Fatalf("poison batch recorded as %+v", r)
	}
	if r.Latency() != (core.BatchLatency{}) {
		t.Fatalf("unapplied batch reports latency %+v", r.Latency())
	}
}

// recordCounts is the deterministic part of a BatchRecord: the work counts
// its stages wrote, without clock readings.
type recordCounts struct {
	DS                                   ds.UpdateProfile
	ViewWritten                          int
	ViewFull                             bool
	Iterations                           int
	Processed, EdgesTraversed, Triggered uint64
	WALBytes                             int
}

// TestBatchRecordDeterministic: two same-seed pipelines at one thread
// write bit-identical counts into their records, batch by batch, for
// every registered structure, with and without durability.
func TestBatchRecordDeterministic(t *testing.T) {
	stream := viewMixedStream(17, 10, 64, 48)
	run := func(t *testing.T, name string, durableOn bool) []recordCounts {
		cfg := core.PipelineConfig{
			DataStructure: name,
			Algorithm:     "cc",
			Model:         compute.INC,
			Directed:      true,
			Threads:       1,
			ComputeView:   true,
		}
		if durableOn {
			cfg.ServeQueries = true
			cfg.Durable = &durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncNever, CheckpointEvery: 4}
		}
		p, err := core.NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []recordCounts
		for _, mb := range stream {
			if _, err := p.ProcessMixed(mb); err != nil {
				t.Fatal(err)
			}
			r := p.LastBatch()
			r.DS.ChunkLoads = append([]uint64(nil), r.DS.ChunkLoads...) // pipeline scratch
			out = append(out, recordCounts{
				DS: r.DS, ViewWritten: r.View.Written, ViewFull: r.View.Full,
				Iterations: r.Compute.Iterations, Processed: r.Compute.Processed,
				EdgesTraversed: r.Compute.EdgesTraversed, Triggered: r.Compute.Triggered,
				WALBytes: r.WALBytes,
			})
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, name := range ds.Names() {
		for _, durableOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", name, durableOn), func(t *testing.T) {
				a, b := run(t, name, durableOn), run(t, name, durableOn)
				for i := range a {
					if !reflect.DeepEqual(a[i], b[i]) {
						t.Fatalf("batch %d: same-seed runs recorded\n%+v\n%+v", i, a[i], b[i])
					}
					if a[i].DS.EdgesIngested != 2*uint64(len(stream[i].Adds)) {
						t.Fatalf("batch %d: %d records ingested for %d adds", i, a[i].DS.EdgesIngested, len(stream[i].Adds))
					}
					if (a[i].WALBytes > 0) != durableOn {
						t.Fatalf("batch %d: WAL record of %d bytes, durable=%v", i, a[i].WALBytes, durableOn)
					}
				}
			})
		}
	}
}

// TestSupervisorLastBatchConcurrentRead reads Supervisor.LastBatch from a
// second goroutine while a durable, traced, two-thread supervised stream
// runs (meaningful under -race): the record it hands out shares no scratch
// the worker writes again, neither the chunk loads nor the range records
// nor the per-worker busy times.
func TestSupervisorLastBatchConcurrentRead(t *testing.T) {
	cfg := core.PipelineConfig{
		DataStructure: "hybrid",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       2,
		ComputeView:   true,
		ServeQueries:  true,
		Telemetry:     telemetry.NewRecorder(telemetry.NewRegistry(), nil),
		Tracer:        trace.New(trace.Config{Flight: 4}),
		Durable:       &durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointEvery: 8},
	}
	sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var reads, ingested uint64
	var busy int64
	var latest, ranges int
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Read every slice element too: under -race, a slice the worker
			// writes again is a reported race.
			r := sup.LastBatch()
			for _, load := range r.DS.ChunkLoads {
				ingested += load
			}
			for _, ns := range r.Compute.WorkerBusyNS {
				busy += ns
			}
			for _, rg := range r.Compute.Ranges {
				ranges += rg.Vertices
			}
			reads++
			latest = max(latest, r.Index)
		}
	}()
	stream := viewMixedStream(23, 40, 64, 48)
	for _, mb := range stream {
		if err := sup.Submit(mb); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if last := sup.LastBatch(); last.Index != len(stream)-1 || !last.Applied || last.WALBytes == 0 {
		t.Fatalf("last record %+v, want batch %d applied and logged", last, len(stream)-1)
	}
	t.Logf("%d concurrent reads, last index seen %d, chunk loads summed %d, busy %d ns, range vertices %d",
		reads, latest, ingested, busy, ranges)
}
