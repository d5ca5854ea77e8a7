package core_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// steadyAllocsParent is testing.AllocsPerRun of the loop below: what the
// data structure, the view and the engine allocate for one steady-state
// mixed batch — 17 at the commit before the stage runner, which must add
// nothing to it, and lowered to each measurement since (hybrid's per-batch
// tally became a store field: 12 → 10). It only goes down.
const steadyAllocsParent = 10

// TestProcessSteadyStateAllocs pins the runner's per-batch allocation
// budget with every observer off (nil recorder, nil tracer): the stage
// table, the BatchRecord and the hooks are pipeline-owned state, not
// per-batch garbage.
func TestProcessSteadyStateAllocs(t *testing.T) {
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "hybrid",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       1,
		ComputeView:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	got := testing.AllocsPerRun(200, func() {
		mb := core.MixedBatch{Adds: window}
		if flip = !flip; flip {
			mb = core.MixedBatch{Dels: window}
		}
		if _, err := p.ProcessMixed(mb); err != nil {
			t.Fatal(err)
		}
	})
	if got > steadyAllocsParent {
		t.Fatalf("steady-state ProcessMixed allocates %v per batch, parent allocated %v", got, steadyAllocsParent)
	}
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
			rec := telemetry.NewRecorder(telemetry.NewRegistry(), telemetry.NewEventSink(&buf))
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
			for i, ev := range evs {
				r, es := recs[i], recs[i].Compute
				want := telemetry.BatchEvent{
					TimeUnixMS: ev.TimeUnixMS, Batch: r.Index, Edges: r.Adds, Deletes: r.Dels, Nodes: r.Nodes,
					UpdateNS: r.Latency().Update.Nanoseconds(), ComputeNS: r.Latency().Compute.Nanoseconds(),
					Affected: r.Affected, Iterations: es.Iterations, Processed: es.Processed,
					EdgesTraversed: es.EdgesTraversed, Triggered: es.Triggered, Skipped: es.Skipped,
					TriggerFrac: es.TriggerFraction(), Epoch: r.Epoch,
					// Per-worker times alias engine scratch in the record and
					// the structure's profile deltas never enter it.
					WorkerBusyNS: ev.WorkerBusyNS, WorkersUsed: ev.WorkersUsed, Straggler: ev.Straggler,
					DSEdgesIngested: ev.DSEdgesIngested, DSInserted: ev.DSInserted, DSScanSteps: ev.DSScanSteps,
					DSLockConflicts: ev.DSLockConflicts, DSMetaOps: ev.DSMetaOps, DSImbalance: ev.DSImbalance,
					DSTierPromotions: ev.DSTierPromotions, DSTierDemotions: ev.DSTierDemotions,
				}
				if tc.view {
					want.ViewNS = r.View.Duration.Nanoseconds()
					want.ViewDirtyFrac = r.View.DirtyFraction()
					want.ViewWritten, want.ViewFull = r.View.Written, r.View.Full
				}
				if !reflect.DeepEqual(ev, want) {
					t.Fatalf("batch %d: event\n%+v\nrecord implies\n%+v", i, ev, want)
				}
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
