package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// traceStream builds a few small insert batches touching vertices 0..n.
func traceStream(batches, edgesPer int) []graph.Batch {
	out := make([]graph.Batch, batches)
	id := 0
	for b := range out {
		for e := 0; e < edgesPer; e++ {
			out[b] = append(out[b], graph.Edge{
				Src: graph.NodeID(id % 24), Dst: graph.NodeID((id + 7) % 24), Weight: 1,
			})
			id++
		}
	}
	return out
}

// TestPipelineBatchTraces streams batches through a traced pipeline and
// checks the flight recorder holds complete span trees: update and
// compute phase spans, per-worker range spans parented under compute, and
// the batch's measurements.
func TestPipelineBatchTraces(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 8})
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "pr",
		Model:         compute.INC,
		Directed:      true,
		Threads:       2,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range traceStream(5, 60) {
		p.Process(b)
	}
	snap := tr.Flight().Snapshot()
	if len(snap) != 5 {
		t.Fatalf("flight recorder holds %d traces, want 5", len(snap))
	}
	d := snap[len(snap)-1]
	stages := map[string]int{}
	var computeID int32 = -2
	for _, s := range d.Spans {
		stages[s.Stage]++
		if s.Stage == "compute" {
			computeID = s.ID
		}
	}
	if stages["update"] != 1 || stages["compute"] != 1 {
		t.Fatalf("phase spans %v, want one update and one compute", stages)
	}
	if stages["inc.round"] == 0 {
		t.Fatalf("no per-worker round spans recorded: %v", stages)
	}
	for _, s := range d.Spans {
		if s.Stage == "inc.round" && s.Parent != computeID {
			t.Fatalf("worker span parent %d, want compute id %d", s.Parent, computeID)
		}
	}
	if d.Edges != 60 || !d.Applied {
		t.Fatalf("batch event edges=%d applied=%v, want 60 applied", d.Edges, d.Applied)
	}
	if d.Affected == 0 || d.Iterations == 0 || d.UpdateNS == 0 || d.ComputeNS == 0 {
		t.Fatalf("batch event lacks its measurements: %+v", d)
	}
}

// TestQuarantineWritesTrace is the forensic contract: a quarantined batch
// must leave a Perfetto-loadable trace dump next to its .poison file, the
// dumped ring must include the dying batch, and that batch's trace must
// carry the failure cause.
func TestQuarantineWritesTrace(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 8})
	probe := func(seq uint64, _, _ graph.Batch) error {
		if seq == 3 {
			return errors.New("injected apply failure")
		}
		return nil
	}
	dcfg := &durable.Config{
		Dir:             t.TempDir(),
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		MaxRetries:      1,
		RetryBackoff:    time.Microsecond,
		ApplyProbe:      probe,
	}
	cfg := durableCfg(dcfg.Dir, "pr", dcfg)
	cfg.Tracer = tr
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range traceStream(5, 40) {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: b}); err != nil {
			t.Fatal(err)
		}
	}
	files := p.PoisonFiles()
	if len(files) != 1 {
		t.Fatalf("poison files %v, want exactly one", files)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	tracePath := strings.TrimSuffix(files[0], ".poison") + ".trace.json"
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("quarantine trace sidecar missing: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("quarantine trace is not valid Chrome JSON: %v", err)
	}
	var quarantined string
	var batchEvents int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "batch ") {
			batchEvents++
			if q, ok := ev.Args["quarantined"].(string); ok {
				quarantined = q
			}
		}
	}
	// The ring holds the batches leading up to the death plus the dying
	// batch itself (sealed by the quarantine path).
	if batchEvents < 3 {
		t.Fatalf("trace dump holds %d batch events, want the poisoned batch plus context", batchEvents)
	}
	if !strings.Contains(quarantined, "injected apply failure") {
		t.Fatalf("no batch event carries the quarantine cause (got %q)", quarantined)
	}
}

// TestValidationRejectWritesTrace covers the other quarantine flavor: a
// batch rejected before consuming a sequence number still dumps the ring
// next to its invalid-*.poison file.
func TestValidationRejectWritesTrace(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 4})
	dcfg := &durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointEvery: -1, MaxNodeID: 100}
	cfg := durableCfg(dcfg.Dir, "pr", dcfg)
	cfg.Tracer = tr
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bad := graph.Batch{{Src: 5000, Dst: 1, Weight: 1}} // past MaxNodeID
	if _, err := p.ProcessMixed(core.MixedBatch{Adds: bad}); err != nil {
		t.Fatalf("validation reject must not error the stream: %v", err)
	}
	files := p.PoisonFiles()
	if len(files) != 1 {
		t.Fatalf("poison files %v", files)
	}
	tracePath := strings.TrimSuffix(files[0], ".poison") + ".trace.json"
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("validation-reject trace sidecar missing: %v", err)
	}
}

// TestTracedPipelineMatchesUntraced guards against the tracer perturbing
// results: identical streams through traced and untraced pipelines must
// produce identical values.
func TestTracedPipelineMatchesUntraced(t *testing.T) {
	build := func(tr *trace.Tracer) *core.Pipeline {
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "cc",
			Model:         compute.INC,
			Directed:      true,
			Threads:       2,
			Tracer:        tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := build(nil)
	traced := build(trace.New(trace.Config{Flight: 4}))
	for _, b := range traceStream(4, 50) {
		plain.Process(b)
		traced.Process(b)
	}
	a, bvals := plain.Values(), traced.Values()
	if len(a) != len(bvals) {
		t.Fatalf("value array lengths differ: %d vs %d", len(a), len(bvals))
	}
	for i := range a {
		if a[i] != bvals[i] {
			t.Fatalf("traced pipeline diverged at vertex %d: %v vs %v", i, a[i], bvals[i])
		}
	}
}

// spanStages maps each stage span's name to the stage it times.
var spanStages = map[string]core.StageID{
	"validate": core.StageValidate, "wal.append": core.StageWAL, "update": core.StageUpdate,
	"view.refresh": core.StageView, "compute": core.StageCompute, "epoch.publish": core.StagePublish,
	"checkpoint": core.StageCheckpoint,
}

// TestStageSpanIsStageClock: a stage's span is timed by the stage's own
// clock, so its duration is the record's stage time to the nanosecond, and
// the compute span's worker children are the range records behind the
// record's per-worker busy times.
func TestStageSpanIsStageClock(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 4})
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: 1})
	cfg.DataStructure = "hybrid"
	cfg.ComputeView, cfg.ServeQueries = true, true
	cfg.Telemetry = telemetry.NewRecorder(telemetry.NewRegistry(), nil)
	cfg.Tracer = tr
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	workers := 0
	for i, s := range durableStream(6) {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
		r := p.LastBatch()
		dumps := tr.Flight().Snapshot()
		d := dumps[len(dumps)-1]
		var computeID int32 = -1
		seen := map[core.StageID]bool{}
		busy := make([]int64, len(r.Compute.WorkerBusyNS))
		for _, s := range d.Spans {
			if s.Parent >= 0 {
				if s.Parent != computeID || s.Worker < 0 || int(s.Worker) >= len(busy) {
					t.Fatalf("batch %d: worker span %+v outside the compute span %d", i, s, computeID)
				}
				busy[s.Worker] += s.EndNS - s.StartNS
				continue
			}
			id, ok := spanStages[s.Stage]
			if !ok || seen[id] {
				t.Fatalf("batch %d: unexpected stage span %+v", i, s)
			}
			seen[id] = true
			if id == core.StageCompute {
				computeID = s.ID
			}
			if got := time.Duration(s.EndNS - s.StartNS); got != r.Stage[id] {
				t.Fatalf("batch %d: %s span lasts %v, the record's stage %v", i, s.Stage, got, r.Stage[id])
			}
		}
		if len(seen) != int(core.NumStages) {
			t.Fatalf("batch %d: spans of %d stages, want all %d", i, len(seen), core.NumStages)
		}
		for w, ns := range busy {
			if ns != r.Compute.WorkerBusyNS[w] {
				t.Fatalf("batch %d: worker %d spans sum to %d ns, the record's busy time %d", i, w, ns, r.Compute.WorkerBusyNS[w])
			}
		}
		workers = max(workers, r.Compute.WorkersUsed())
	}
	if workers != 2 {
		t.Fatalf("at most %d workers busy in a batch, want both", workers)
	}
}

// TestRetriedBatchTraceKeepsAttempts: an injected compute error fails the
// first apply of a durable batch, which applies on the retry; its one
// trace holds the completed stages of both attempts — two update spans —
// and the compute span of the attempt that completed.
func TestRetriedBatchTraceKeepsAttempts(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 8})
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{
		Fsync: durable.FsyncAlways, CheckpointEvery: -1, MaxRetries: 1, RetryBackoff: time.Microsecond,
	})
	cfg.Faults = fault.MustParseSchedule("eio(compute,2)", 1)
	cfg.Tracer = tr
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, s := range durableStream(3) {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatal(err)
		}
		wantRetries := 0
		if i == 1 {
			wantRetries = 1
		}
		if r := p.LastBatch(); !r.Applied || r.Retries != wantRetries {
			t.Fatalf("batch %d recorded as applied=%v after %d retries, want %d", i, r.Applied, r.Retries, wantRetries)
		}
	}
	if len(p.PoisonFiles()) != 0 {
		t.Fatalf("retried batch quarantined: %v", p.PoisonFiles())
	}
	dumps := tr.Flight().Snapshot()
	if len(dumps) != 3 {
		t.Fatalf("%d batch traces for 3 batches", len(dumps))
	}
	stages := map[string]int{}
	for _, s := range dumps[1].Spans {
		if s.Parent < 0 {
			stages[s.Stage]++
		}
	}
	if stages["update"] != 2 || stages["compute"] != 1 {
		t.Fatalf("retried batch's stage spans %v, want two update and one compute", stages)
	}
}

// TestRecordsNameTheirPipeline: two pipelines of different structure,
// algorithm and model share one tracer and one recorder with an event
// log, processing batches in turn. Every flight-recorder entry and every
// log line names the pipeline that produced it, so a shared ring or log
// can be split by pipeline.
func TestRecordsNameTheirPipeline(t *testing.T) {
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(telemetry.NewRegistry(), telemetry.NewEventSink(&buf))
	tr := trace.New(trace.Config{Flight: 64})
	type identity struct{ ds, alg, model string }
	ids := []identity{{"adjshared", "pr", "inc"}, {"stinger", "cc", "fs"}}
	var ps []*core.Pipeline
	for _, id := range ids {
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: id.ds,
			Algorithm:     id.alg,
			Model:         compute.Model(id.model),
			Directed:      true,
			Threads:       1,
			Telemetry:     rec,
			Tracer:        tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	const batches = 3
	for _, b := range traceStream(batches, 30) {
		for _, p := range ps {
			p.Process(b)
		}
	}
	for _, p := range ps {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	// The pipelines alternate, so record i comes from ids[i%2].
	check := func(what string, i int, fields map[string]any) {
		t.Helper()
		want := ids[i%len(ids)]
		if fields["ds"] != want.ds || fields["alg"] != want.alg || fields["model"] != want.model {
			t.Errorf("%s %d names ds=%v alg=%v model=%v, want %+v", what, i, fields["ds"], fields["alg"], fields["model"], want)
		}
	}
	dec := json.NewDecoder(&buf)
	lines := 0
	for ; dec.More(); lines++ {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		check("log line", lines, line)
	}
	if lines != batches*len(ids) {
		t.Fatalf("%d log lines for %d batches", lines, batches*len(ids))
	}
	var chrome bytes.Buffer
	if err := tr.WriteTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var ring []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "batch" {
			ring = append(ring, ev.Args)
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i]["seq"].(float64) < ring[j]["seq"].(float64) })
	if len(ring) != batches*len(ids) {
		t.Fatalf("ring holds %d batches, want %d", len(ring), batches*len(ids))
	}
	for i, args := range ring {
		check("ring entry", i, args)
	}
}
