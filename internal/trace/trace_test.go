package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// batch builds a finished batch event of a pr/inc pipeline on adjshared:
// an update span, then a compute span with one worker child per entry of
// workers.
func batch(index int, workers ...int) telemetry.BatchEvent {
	d := telemetry.BatchEvent{DS: "adjshared", Alg: "pr", Model: "inc", Batch: index, Applied: true,
		DurNS: 10_000, Spans: []telemetry.SpanRecord{
			{ID: 0, Parent: -1, Worker: -1, Stage: "update", StartNS: 0, EndNS: 1_000, Attrs: []telemetry.Attr{telemetry.Int("edges", 500)}},
			{ID: 1, Parent: -1, Worker: -1, Stage: "compute", StartNS: 1_000, EndNS: 9_000, Attrs: []telemetry.Attr{telemetry.Int("iterations", 2)}},
		}}
	for _, w := range workers {
		d.Spans = append(d.Spans, telemetry.SpanRecord{ID: int32(len(d.Spans)), Parent: 1, Worker: int32(w),
			Stage: "inc.round", StartNS: 2_000, EndNS: 3_000, Attrs: []telemetry.Attr{telemetry.Int("vertices", int64(10*w))}})
	}
	return d
}

// TestNilTracerSafe checks the whole disabled surface: a nil tracer must
// no-op.
func TestNilTracerSafe(t *testing.T) {
	var tr *trace.Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.PprofLabels() {
		t.Fatal("nil tracer reports pprof labels")
	}
	if tr.Flight() != nil {
		t.Fatal("nil tracer has a flight recorder")
	}
	if seq := tr.NextSeq(); seq != 0 {
		t.Fatalf("nil tracer numbered a batch %d", seq)
	}
	d := batch(0, 3)
	tr.Record(&d)
	if err := tr.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil tracer WriteTrace must error")
	}
	tr.Label(1, "update", "adjshared", "pr", "inc")() // must not touch the goroutine's labels, nor panic
}

// TestLabelSetsAndClears checks the stage labels land on the calling
// goroutine — where the CPU profiler reads them — and are gone again once
// the returned function has run.
func TestLabelSetsAndClears(t *testing.T) {
	labeled := func() bool {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(buf.String(), `"stage":"compute"`) && strings.Contains(buf.String(), `"batch":"7"`)
	}
	tr := trace.New(trace.Config{PprofLabels: true})
	clear := tr.Label(7, "compute", "adjshared", "pr", "inc")
	if !labeled() {
		t.Fatal("stage labels not on the goroutine after Label")
	}
	clear()
	if labeled() {
		t.Fatal("stage labels still on the goroutine after clearing")
	}
}

// TestDisabledTracerZeroAllocs asserts a disabled tracer's per-batch
// calls allocate nothing. (The pipeline does not even make them: every
// trace hook in internal/core is behind a nil check.)
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *trace.Tracer
	d := batch(7, 0, 1, 2, 3)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tr.PprofLabels()
		d.Seq = tr.NextSeq()
		tr.Record(&d)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer hot loop allocates %.1f allocs/op, want 0", allocs)
	}
}

// chromeDoc is the part of a Chrome trace-event document the tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestBatchTraceRoundTrip records a realistic batch event, renders the
// ring as Chrome JSON, decodes it back, and checks the event's identity,
// typed fields and span tree survive: the batch's args are its event
// fields, each span an event parented under its stage.
func TestBatchTraceRoundTrip(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 4})
	d := batch(3, 0, 1, 2)
	d.Seq = tr.NextSeq()
	d.Edges, d.WorkersUsed, d.Straggler, d.WALSeq = 500, 3, 1.5, 7
	tr.Record(&d)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var batchArgs map[string]any
	byStage := map[string][]map[string]any{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "batch":
			if batchArgs != nil {
				t.Fatal("two batch events for one recorded batch")
			}
			if ev.Name != "batch 3" || ev.Dur != 10 {
				t.Fatalf("batch event %q lasting %v µs, want batch 3 lasting 10", ev.Name, ev.Dur)
			}
			batchArgs = ev.Args
		case ev.Cat == "span":
			byStage[ev.Name] = append(byStage[ev.Name], ev.Args)
		}
	}
	for key, want := range map[string]any{"seq": 1.0, "batch": 3.0, "ds": "adjshared", "alg": "pr", "model": "inc",
		"applied": true, "edges": 500.0, "straggler": 1.5, "wal_seq": 7.0} {
		if batchArgs[key] != want {
			t.Fatalf("batch arg %q = %v, want %v (args %v)", key, batchArgs[key], want, batchArgs)
		}
	}
	if _, ok := batchArgs["spans"]; ok {
		t.Fatal("batch args repeat the spans")
	}
	if len(byStage["update"]) != 1 || len(byStage["compute"]) != 1 {
		t.Fatalf("stage spans %v", byStage)
	}
	workers := byStage["inc.round"]
	if len(workers) != 3 {
		t.Fatalf("got %d worker spans, want 3", len(workers))
	}
	computeID := byStage["compute"][0]["span"]
	for _, a := range workers {
		if a["parent"] != computeID {
			t.Fatalf("worker span parent %v, want compute id %v", a["parent"], computeID)
		}
	}
}

// TestFlightRecorderEviction fills the ring past capacity and checks the
// snapshot holds exactly the newest Cap traces in sequence order.
func TestFlightRecorderEviction(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 4})
	for i := 0; i < 10; i++ {
		tr.Record(&telemetry.BatchEvent{Seq: tr.NextSeq(), Batch: i})
	}
	ring := tr.Flight()
	if ring.Cap() != 4 || ring.Recorded() != 10 {
		t.Fatalf("cap %d recorded %d, want 4/10", ring.Cap(), ring.Recorded())
	}
	snap := ring.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d traces, want 4", len(snap))
	}
	for i, d := range snap {
		if want := uint64(7 + i); d.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (newest 4, oldest first)", i, d.Seq, want)
		}
	}
}

// TestFlightRecorderConcurrent hammers the ring with concurrent batch
// writers while dumping snapshots; run under -race this is the data-race
// proof for the lock-free design.
func TestFlightRecorderConcurrent(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 8})
	const writers, perWriter = 4, 50
	stop := make(chan struct{})
	dumperDone := make(chan struct{})
	go func() { // concurrent dumper
		defer close(dumperDone)
		for {
			for _, d := range tr.Flight().Snapshot() {
				if d.DurNS < 0 {
					t.Error("negative duration in concurrent snapshot")
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := batch(i, 0, 1)
				d.Seq = tr.NextSeq()
				tr.Record(&d)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-dumperDone
	if got := tr.Flight().Recorded(); got != writers*perWriter {
		t.Fatalf("recorded %d traces, want %d", got, writers*perWriter)
	}
	if snap := tr.Flight().Snapshot(); len(snap) != 8 {
		t.Fatalf("final snapshot holds %d traces, want 8 (ring capacity)", len(snap))
	}
}

// TestWriteChrome checks the exporter emits valid Chrome trace-event JSON
// with per-worker tracks and thread-name metadata — the Perfetto loading
// contract.
func TestWriteChrome(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 2})
	d := batch(0, 0, 1)
	d.DS, d.Alg, d.Model = "dah", "bfs", "fs"
	tr.Record(&d)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var metas, batches, spans int
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event %q", ev.Name)
			}
		case "X":
			tids[ev.TID] = true
			if strings.HasPrefix(ev.Name, "batch ") {
				batches++
				if ev.Args["ds"] != "dah" || ev.Args["alg"] != "bfs" || ev.Args["model"] != "fs" {
					t.Fatalf("batch args %v", ev.Args)
				}
			} else {
				spans++
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// Tracks: pipeline (0) + workers 0,1 (tids 1,2); metadata names all 3.
	if metas != 3 {
		t.Fatalf("%d thread_name metadata events, want 3", metas)
	}
	if batches != 1 || spans != 4 {
		t.Fatalf("batches=%d spans=%d, want 1/4", batches, spans)
	}
	for _, tid := range []int{0, 1, 2} {
		if !tids[tid] {
			t.Fatalf("no events on tid %d (tracks %v)", tid, tids)
		}
	}
}

// TestDumpChromeFile writes the ring to a file and re-parses it.
func TestDumpChromeFile(t *testing.T) {
	tr := trace.New(trace.Config{Flight: 2})
	d := batch(0)
	tr.Record(&d)
	path := t.TempDir() + "/trace.json"
	if err := tr.DumpChromeFile(path); err != nil {
		t.Fatal(err)
	}
	dumps, err := readChromeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dumps == 0 {
		t.Fatal("dumped file holds no trace events")
	}
}

// readChromeFile counts trace events in a Chrome JSON file.
func readChromeFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, err
	}
	return len(doc.TraceEvents), nil
}
