package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// viewMixedStream builds a deterministic mixed stream. Weights are a
// symmetric function of the endpoints and the batch index, so duplicate
// and mirrored inserts of the same edge within one batch agree on weight
// (ingestion order must not matter).
func viewMixedStream(seed int64, batches, batchSize, numNodes int) []core.MixedBatch {
	rng := rand.New(rand.NewSource(seed))
	var live graph.Batch
	out := make([]core.MixedBatch, batches)
	for b := range out {
		var mb core.MixedBatch
		for i := 0; i < batchSize; i++ {
			var e graph.Edge
			if len(live) > 0 && rng.Intn(3) == 0 {
				e = live[rng.Intn(len(live))]
			} else {
				e = graph.Edge{Src: graph.NodeID(rng.Intn(numNodes)), Dst: graph.NodeID(rng.Intn(numNodes))}
			}
			lo, hi := int(e.Src), int(e.Dst)
			if lo > hi {
				lo, hi = hi, lo
			}
			e.Weight = graph.Weight(1 + (lo+7*hi+13*b)%9)
			mb.Adds = append(mb.Adds, e)
			live = append(live, e)
		}
		for i := 0; i < batchSize/8 && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			mb.Dels = append(mb.Dels, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		out[b] = mb
	}
	return out
}

// TestComputeViewBitIdentical runs every (structure, algorithm, model,
// directedness) combination twice over the identical mixed stream — once
// on the interface path, once on the flat compute view — at Threads=1,
// where both executions are fully deterministic, and requires the property
// vectors to match bit for bit after every batch. The mirror preserves
// each store's neighbor order, so even PageRank's order-sensitive float
// summation must agree exactly. The count twin holds the work too: each
// batch's iterations, recomputations, edge reads and triggers must be
// equal, so both paths run the same rounds over the same runs.
func TestComputeViewBitIdentical(t *testing.T) {
	for _, dsName := range ds.Names() {
		dsName := dsName
		t.Run(dsName, func(t *testing.T) {
			t.Parallel()
			for _, directed := range []bool{true, false} {
				stream := viewMixedStream(0xBEEF+int64(len(dsName)), 8, 150, 64)
				for _, alg := range compute.AlgNames() {
					for _, model := range []compute.Model{compute.FS, compute.INC} {
						mk := func(view bool) *core.Pipeline {
							p, err := core.NewPipeline(core.PipelineConfig{
								DataStructure: dsName,
								Algorithm:     alg,
								Model:         model,
								Directed:      directed,
								Threads:       1,
								ComputeView:   view,
							})
							if err != nil {
								t.Fatal(err)
							}
							return p
						}
						plain, viewed := mk(false), mk(true)
						if viewed.ComputeGraph() == viewed.Graph() {
							t.Fatalf("%s: compute view not attached", dsName)
						}
						for bi, mb := range stream {
							if _, err := plain.ProcessMixed(mb); err != nil {
								t.Fatalf("%s/%s/%s plain batch %d: %v", dsName, alg, model, bi, err)
							}
							if _, err := viewed.ProcessMixed(mb); err != nil {
								t.Fatalf("%s/%s/%s view batch %d: %v", dsName, alg, model, bi, err)
							}
							got, want := viewed.Values(), plain.Values()
							if len(got) != len(want) {
								t.Fatalf("%s/%s/%s/directed=%v batch %d: %d values, want %d",
									dsName, alg, model, directed, bi, len(got), len(want))
							}
							for v := range got {
								// NaN never appears (distances are inf, not NaN),
								// so bitwise identity is plain equality.
								if got[v] != want[v] {
									t.Fatalf("%s/%s/%s/directed=%v batch %d vertex %d: view %v, interface %v",
										dsName, alg, model, directed, bi, v, got[v], want[v])
								}
							}
							gs, ws := viewed.LastBatch().Compute, plain.LastBatch().Compute
							if gs.Iterations != ws.Iterations || gs.Processed != ws.Processed ||
								gs.EdgesTraversed != ws.EdgesTraversed || gs.Triggered != ws.Triggered {
								t.Fatalf("%s/%s/%s/directed=%v batch %d: view counts iter=%d proc=%d edges=%d trig=%d, interface iter=%d proc=%d edges=%d trig=%d",
									dsName, alg, model, directed, bi,
									gs.Iterations, gs.Processed, gs.EdgesTraversed, gs.Triggered,
									ws.Iterations, ws.Processed, ws.EdgesTraversed, ws.Triggered)
							}
						}
					}
				}
			}
		})
	}
}

// TestViewShapeFollowsKernel checks that initView mirrors what the kernel
// reads: FS PageRank gets in-runs and out-degrees, FS SSSP out-runs only,
// INC PageRank both directions — and that served queries keep both for FS
// PageRank and FS SSSP too, with or without ComputeView set, so a pinned
// epoch still answers Out.
func TestViewShapeFollowsKernel(t *testing.T) {
	stream := viewMixedStream(23, 4, 200, 64)
	for _, tc := range []struct {
		alg           string
		model         compute.Model
		view, serve   bool
		hasOut, hasIn bool
	}{
		{"pr", compute.FS, true, false, false, true},
		{"pr", compute.FS, true, true, true, true},
		{"pr", compute.FS, false, true, true, true},
		{"sssp", compute.FS, true, false, true, false},
		{"sssp", compute.FS, false, true, true, true},
		{"pr", compute.INC, true, false, true, true},
	} {
		name := fmt.Sprintf("%s/%s view=%v serve=%v", tc.alg, tc.model, tc.view, tc.serve)
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: "hybrid", Algorithm: tc.alg, Model: tc.model, Directed: true,
			Threads: 1, ComputeView: tc.view, ServeQueries: tc.serve,
		})
		if err != nil {
			t.Fatal(err)
		}
		for bi, mb := range stream {
			if _, err := p.ProcessMixed(mb); err != nil {
				t.Fatalf("%s batch %d: %v", name, bi, err)
			}
		}
		fv, ok := p.ComputeGraph().(ds.FlatView)
		if !ok {
			t.Fatalf("%s: compute graph %T is not a flat mirror", name, p.ComputeGraph())
		}
		csr := fv.FlatCSR()
		if csr.HasOut() != tc.hasOut || csr.HasIn() != tc.hasIn {
			t.Fatalf("%s: mirror has out=%v in=%v, want out=%v in=%v",
				name, csr.HasOut(), csr.HasIn(), tc.hasOut, tc.hasIn)
		}
		if !tc.serve {
			continue
		}
		h, err := p.AcquireQuery()
		if err != nil {
			t.Fatal(err)
		}
		g := p.Graph()
		for v := 0; v < h.NumNodes(); v++ {
			id := graph.NodeID(v)
			if got, want := len(h.Out(id)), g.OutDegree(id); got != want || h.OutDegree(id) != want {
				t.Fatalf("%s: pinned epoch out(%d) holds %d, degree %d; structure %d", name, v, got, h.OutDegree(id), want)
			}
		}
		h.Release()
	}
}

// TestComputeViewDurableRecovery checks the mirror survives the crash
// path. Recovery rebuilds the structure from a checkpoint's canonical
// edge order, so recovered values legitimately differ in the last float
// bit from an undisturbed run; the invariant that must hold exactly is
// view-on vs view-off across the SAME close/recover/resume sequence — the
// recovered mirror (rebuilt fresh, full-built on the first post-recovery
// batch) must stay bit-identical to the recovered interface path.
func TestComputeViewDurableRecovery(t *testing.T) {
	stream := viewMixedStream(7, 10, 120, 48)
	mk := func(view bool, dur *durable.Config) *core.Pipeline {
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "pr",
			Model:         compute.INC,
			Directed:      true,
			Threads:       1,
			ComputeView:   view,
			Durable:       dur,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	finals := map[bool][]float64{}
	for _, view := range []bool{false, true} {
		dir := t.TempDir()
		dcfg := durable.Config{Dir: dir, Fsync: durable.FsyncAlways, CheckpointEvery: 3}
		first := mk(view, &dcfg)
		for _, mb := range stream[:6] {
			if _, err := first.ProcessMixed(mb); err != nil {
				t.Fatal(err)
			}
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		second := mk(view, &dcfg)
		if view && second.ComputeGraph() == second.Graph() {
			t.Fatal("recovered pipeline lost its compute view")
		}
		for _, mb := range stream[6:] {
			if _, err := second.ProcessMixed(mb); err != nil {
				t.Fatal(err)
			}
		}
		finals[view] = append([]float64(nil), second.Values()...)
		if err := second.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := finals[true], finals[false]
	if len(got) != len(want) {
		t.Fatalf("view path recovered %d values, interface path %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: view path %v, interface path %v", v, got[v], want[v])
		}
	}
}

// TestComputeViewTelemetry checks the view refresh surfaces in both the
// per-batch event log (view_ns / dirty fraction / entries written / full
// flag) and the Prometheus metrics.
func TestComputeViewTelemetry(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "stinger",
		Algorithm:     "cc",
		Model:         compute.FS,
		Directed:      true,
		Threads:       2,
		ComputeView:   true,
		Telemetry:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One large batch, then small ones: small against the entries the graph
	// holds, which is what makes a refresh relocate instead of compact.
	stream := append(viewMixedStream(7, 1, 6000, 4000), viewMixedStream(11, 6, 100, 4000)...)
	for bi, mb := range stream {
		if _, err := p.ProcessMixed(mb); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(stream) {
		t.Fatalf("%d events, want %d", len(evs), len(stream))
	}
	if !evs[0].ViewFull {
		t.Fatal("first batch should be a full mirror build")
	}
	sawDelta := false
	for i, ev := range evs {
		if ev.ViewNS <= 0 {
			t.Fatalf("event %d: ViewNS=%d, want > 0", i, ev.ViewNS)
		}
		if ev.ViewDirtyFrac <= 0 || ev.ViewDirtyFrac > 1 {
			t.Fatalf("event %d: ViewDirtyFrac=%v outside (0, 1]", i, ev.ViewDirtyFrac)
		}
		if ev.ViewWritten <= 0 {
			t.Fatalf("event %d: ViewWritten=%d, want > 0", i, ev.ViewWritten)
		}
		if !ev.ViewFull {
			sawDelta = true
			if ev.ViewDirtyFrac >= 1 {
				t.Fatalf("event %d: relocating refresh with dirty fraction %v", i, ev.ViewDirtyFrac)
			}
			if ev.ViewWritten >= evs[0].ViewWritten {
				t.Fatalf("event %d: relocating refresh wrote %d entries, the first build %d", i, ev.ViewWritten, evs[0].ViewWritten)
			}
		}
	}
	if !sawDelta {
		t.Fatal("small batches on a large graph never relocated")
	}
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, metric := range []string{
		"saga_view_refresh_seconds",
		"saga_view_dirty_fraction",
		"saga_view_delta_rebuilds_total",
		"saga_view_full_rebuilds_total",
		"saga_view_entries_written_total",
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("metrics dump missing %s", metric)
		}
	}
}
