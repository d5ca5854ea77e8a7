package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
)

// The layer replay is the traced run. It feeds the identical batch stream
// to the same layers core.Pipeline assembles — ds, the compute view, the
// compute engine, epoch, durable — by calling their public functions in
// the order core.apply and core.processDurable call them, with one
// in-memory span around each call. Nothing inside the program is
// instrumented; what the replay cannot see (queue hop, health checks, the
// supervisor, telemetry) is what core adds on top, and shows up as
// core.glue_share. The replay's final adjacency and values must equal the
// pipeline pass's, so the replay cannot silently drift from core.apply.

// span is one timed call into a layer. Spans of one batch share its id;
// Parent is the index of the batch's root span (-1 for the root itself).
type span struct {
	Name       string
	Batch      int
	Parent     int
	Start, End int64 // ns since the trace began
}

// tracer keeps spans in memory until the run is over. A nil tracer records
// nothing, so the untimed preload runs through the same code.
type tracer struct {
	t0    time.Time
	spans []span
	root  int
	batch int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), root: -1}
}

func (t *tracer) beginBatch(id int) {
	if t == nil {
		return
	}
	t.batch, t.root = id, len(t.spans)
	t.spans = append(t.spans, span{Name: "batch", Batch: id, Parent: -1, Start: int64(time.Since(t.t0))})
}

func (t *tracer) endBatch() {
	if t == nil {
		return
	}
	t.spans[t.root].End = int64(time.Since(t.t0))
	t.root = -1
}

// begin opens a layer span under the current batch; end closes it.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Batch: t.batch, Parent: t.root, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes folds the spans into per-batch self time by span name, in ms.
// A layer span has no children (the program itself is not instrumented),
// so its self time is its duration; the root's is what no layer covers.
func (t *tracer) selfTimes() map[string][]float64 {
	out := make(map[string][]float64)
	covered := make(map[int]int64) // root index -> ns its children cover
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for i, s := range t.spans {
		if s.Parent < 0 {
			out["batch.wall"] = append(out["batch.wall"], float64(s.End-s.Start)/1e6)
			out["batch.self"] = append(out["batch.self"], float64(s.End-s.Start-covered[i])/1e6)
		}
	}
	return out
}

// writeChrome dumps the spans as Chrome trace-event JSON (ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"batch": s.Batch, "span": i, "parent": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCostNs times a million empty spans: the tracing overhead per span.
func spanCostNs() float64 {
	const n = 1_000_000
	t := newTracer(n + 1)
	t.beginBatch(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("empty"))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// layers is the bare assembly the replay drives.
type layers struct {
	g      ds.Graph
	view   *ds.ComputeView
	engine compute.Engine
	em     *epoch.Manager
	man    *durable.Manager

	published int
	sinceCkpt int

	affected []graph.NodeID
	mark     []uint8
	scratch  graph.Batch
}

func buildLayers(w *workload, sc scale, dir string) (*layers, error) {
	l := &layers{}
	var err error
	if l.g, err = ds.New(w.ds, ds.Config{Directed: true, Threads: threads, MaxNodesHint: sc.nodes}); err != nil {
		return nil, err
	}
	// WorkerTiming is the one place the replay differs from the untraced
	// pipeline: the straggler ratio needs the per-worker clocks.
	l.engine, err = compute.NewEngine(w.alg, w.model, compute.Options{Threads: threads, WorkerTiming: true})
	if err != nil {
		return nil, err
	}
	if w.view {
		v, ok := ds.NewComputeView(l.g, threads)
		if !ok {
			return nil, fmt.Errorf("%s exposes no flat view", w.ds)
		}
		if !compute.NeedsInAdjacency(w.alg, w.model) && !w.serve {
			v.MirrorOutOnly()
		}
		l.view = v
	}
	if w.serve {
		if l.view == nil {
			return nil, fmt.Errorf("%s: the replay publishes the view's CSR; serving without a view is not modelled", w.name)
		}
		l.em = epoch.NewManager(true)
	}
	if w.durable {
		l.man, err = durable.Open(durable.Config{
			Dir: dir, Fsync: durable.FsyncAlways, CheckpointEvery: checkpointEvery,
			MaxNodeID: graph.NodeID(sc.nodes - 1),
		}, nil)
		if err != nil {
			return nil, err
		}
		if _, _, err := l.man.Recover(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *layers) computeGraph() ds.Graph {
	if l.view != nil {
		return l.view
	}
	return l.g
}

// apply is one batch through the layers, in the pipeline's order.
func (l *layers) apply(tr *tracer, id int, adds, dels graph.Batch) error {
	tr.beginBatch(id)
	defer tr.endBatch()
	if l.man != nil {
		sp := tr.begin("durable.append")
		err := durable.ValidateBatch(adds, dels, l.man.Config().MaxNodeID)
		if err == nil {
			_, err = l.man.Append(adds, dels)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	var olds graph.Batch
	if wca, ok := l.engine.(compute.WeightChangeAware); ok && wca.WantsWeightChanges() {
		sp := tr.begin("ds.overwritten")
		olds = ds.Overwritten(l.g, adds)
		tr.end(sp)
	}
	sp := tr.begin("ds.update")
	l.g.Update(adds)
	tr.end(sp)
	if len(dels) > 0 {
		sp := tr.begin("ds.delete")
		err := l.g.(ds.Deleter).Delete(dels)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if l.view != nil {
		sp := tr.begin("ds.refresh")
		if l.em != nil && l.em.ReclaimSpare() {
			l.view.DropSpares()
		}
		l.view.Refresh(adds, dels)
		tr.end(sp)
	}
	cg := l.computeGraph()
	if invalidating := append(olds, dels...); len(invalidating) > 0 {
		if da, ok := l.engine.(compute.DeletionAware); ok {
			sp := tr.begin("compute.notify")
			da.NotifyDeletions(cg, invalidating)
			tr.end(sp)
		}
	}
	l.scratch = append(append(l.scratch[:0], adds...), dels...)
	aff := l.affectedOf(l.scratch)
	sp = tr.begin("compute.perform")
	l.engine.PerformAlg(cg, aff)
	tr.end(sp)
	if l.em != nil {
		sp := tr.begin("epoch.publish")
		l.em.Publish(&epoch.Snapshot{
			Batch: l.published, Wall: time.Now(), CSR: *l.view.FlatCSR(),
			Values: append([]float64(nil), l.engine.Values()...), Directed: true,
		})
		l.published++
		tr.end(sp)
	}
	if l.man != nil {
		if l.sinceCkpt++; l.sinceCkpt >= checkpointEvery {
			sp := tr.begin("durable.checkpoint")
			err := l.checkpoint()
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// affectedOf deduplicates the batch's endpoints: the affected array of the
// paper's Algorithm 1, which core builds between the two phases.
func (l *layers) affectedOf(batch graph.Batch) []graph.NodeID {
	n := l.g.NumNodes()
	for len(l.mark) < n {
		l.mark = append(l.mark, 0)
	}
	l.affected = l.affected[:0]
	for _, e := range batch {
		for _, v := range [2]graph.NodeID{e.Src, e.Dst} {
			if int(v) < n && l.mark[v] == 0 {
				l.mark[v] = 1
				l.affected = append(l.affected, v)
			}
		}
	}
	for _, v := range l.affected {
		l.mark[v] = 0
	}
	return l.affected
}

func (l *layers) checkpoint() error {
	cp := &durable.Checkpoint{
		Seq: l.man.LastSeq(), Directed: true, NumNodes: l.g.NumNodes(),
		Edges: ds.ExportEdgesParallel(l.g, threads),
	}
	if st, ok := l.engine.(compute.Stateful); ok {
		s := st.ExportState()
		cp.Engine = &s
	}
	l.sinceCkpt = 0
	return l.man.WriteCheckpoint(cp)
}

// replayStats is what the traced pass adds to the pipeline pass.
type replayStats struct {
	self         map[string][]float64 // per-batch self time by span name, ms
	straggler    []float64
	pinReleaseNs []float64
	recoverMs    float64
	final        finalState
	streamFNV    uint64
}

// runReplay applies the workload's stream to the bare layers, back to back
// (the open loop's schedule is the supervisor's business, not a layer's).
func runReplay(w *workload, opt options) (*replayStats, error) {
	sc := opt.scale
	dir := filepath.Join(opt.workDir, "replay-durable")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := buildLayers(w, sc, dir)
	if err != nil {
		return nil, err
	}
	s := newStream(w, sc, opt.seed)
	for b := 0; b < w.preloadBatches(); b++ {
		adds, dels := s.next(sc.edges(w.preloadBatch))
		if err := l.apply(nil, b, adds, dels); err != nil {
			return nil, fmt.Errorf("replay preload batch %d: %w", b, err)
		}
	}
	n := w.timedBatches(opt.seconds)
	tr := newTracer(12 * n)
	rs := &replayStats{}
	var rd *reader
	if w.reader {
		rd = startReader(func() (session, error) {
			if snap := l.em.Pin(); snap != nil {
				return pinned{snap, l.em}, nil
			}
			return nil, fmt.Errorf("no epoch published")
		}, sc.nodes, opt.seed)
	}
	for i := 0; i < n; i++ {
		adds, dels := s.next(sc.edges(w.batch))
		if err := l.apply(tr, i, adds, dels); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		rs.straggler = append(rs.straggler, l.engine.Stats().StragglerRatio())
	}
	if rd != nil {
		rs.pinReleaseNs = rd.stop().pinReleaseNs
	}
	if l.man != nil {
		// What recovery reads back at this instant: newest checkpoint plus
		// the WAL tail, decoded but not applied.
		if err := l.man.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		m, err := durable.Open(l.man.Config(), nil)
		if err == nil {
			_, _, err = m.Recover()
			rs.recoverMs = ms(time.Since(t0))
			m.Abandon()
		}
		if err != nil {
			return nil, fmt.Errorf("replay recover: %w", err)
		}
	}
	rs.self = tr.selfTimes()
	rs.final = captureFinal(l.g, l.engine.Values())
	rs.streamFNV = s.fnv
	// The trace outlives the run's scratch directory: it lands beside it.
	return rs, tr.writeChrome(filepath.Join(filepath.Dir(opt.workDir), "trace-"+w.name+".json"))
}
