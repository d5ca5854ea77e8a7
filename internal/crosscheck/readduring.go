package crosscheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
	"sagabench/internal/snapshot"
)

// Read-during-update differential: a single writer replays a stream
// through one structure/engine pair, publishing an epoch snapshot after
// every batch exactly as core.Pipeline does, while concurrent readers pin
// epochs and record neighborhood/degree/value observations mid-stream.
// After the stream drains, every observation is re-answered from ground
// truth replayed to the observation's pinned batch — the adjacency from
// an internal/snapshot.Store (checkpoint + delta replay over the same
// stream) and the property vector from the sequential reference on the
// oracle — so a stale, torn, or scribbled epoch surfaces as a concrete
// (batch, vertex) mismatch. Mismatches are minimized to .repro files via
// a deterministic single-threaded re-check when the failure survives
// sequential replay; races that do not are written unshrunk.

// ReadDuringConfig parameterizes one read-during-update run.
type ReadDuringConfig struct {
	// Stream parameterizes generation (ReadDuring generates via NewStream).
	Stream StreamConfig
	// DS is the data structure under test (required).
	DS string
	// Alg/Model select the engine (default cc/FS — deletion-safe, exact
	// tolerance).
	Alg   string
	Model compute.Model
	// Threads is the worker count (default 4).
	Threads int
	// Readers is the concurrent reader count (default 4).
	Readers int
	// MaxObsPerReader caps recorded observations per reader so post-hoc
	// verification stays bounded (default 256).
	MaxObsPerReader int
	// ComputeView publishes the incrementally rebuilt CSR mirror (the
	// buffer-reuse path, where the reclaim protocol is load-bearing);
	// otherwise every batch publishes a freshly exported CSR.
	ComputeView bool
	// Opts carries algorithm tuning; zero gets the harness defaults.
	Opts compute.Options
	// MakeStructure overrides registry construction (fault injection).
	MakeStructure func(name string) ds.Graph
	// OutDir, when non-empty, receives one .repro file per distinct
	// mismatching vertex.
	OutDir string
}

func (c ReadDuringConfig) withDefaults() ReadDuringConfig {
	c.Stream = c.Stream.withDefaults()
	if c.Alg == "" {
		c.Alg = "cc"
	}
	if c.Model == "" {
		c.Model = compute.FS
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Readers <= 0 {
		c.Readers = 4
	}
	if c.MaxObsPerReader <= 0 {
		c.MaxObsPerReader = 256
	}
	if c.Opts.PRTolerance == 0 {
		c.Opts.PRTolerance = 1e-12
	}
	if c.Opts.PRMaxIters == 0 {
		c.Opts.PRMaxIters = 200
	}
	if c.Opts.Epsilon == 0 {
		c.Opts.Epsilon = 1e-12
	}
	c.Opts.Threads = c.Threads
	return c
}

// ReadMismatch is one mid-stream observation that ground truth refutes.
type ReadMismatch struct {
	// Batch/Epoch locate the pinned snapshot; Vertex the query.
	Batch  int
	Epoch  uint64
	Vertex graph.NodeID
	// Detail describes the divergence.
	Detail string
	// Deterministic reports whether a single-threaded sequential replay
	// reproduces the mismatch (false strongly suggests a publication race
	// rather than a structural bug).
	Deterministic bool
	// ReproFile is the minimized (or, for nondeterministic failures,
	// unshrunk) reproducer, when OutDir was set.
	ReproFile string
}

func (m ReadMismatch) String() string {
	return fmt.Sprintf("batch %d epoch %d vertex %d: %s", m.Batch, m.Epoch, m.Vertex, m.Detail)
}

// ReadDuringReport summarizes one run.
type ReadDuringReport struct {
	// Batches is the stream length; Observations the mid-stream queries
	// recorded; Checked the ground-truth re-answers performed.
	Batches      int
	Observations int
	Checked      int
	// Mismatches lists refuted observations (deduplicated by (batch,
	// vertex)), capped at maxMismatches per run; Suppressed counts the
	// distinct failing pairs beyond the cap, so a mass failure is never
	// silently truncated.
	Mismatches []ReadMismatch
	Suppressed int
	// ReaderPanic carries the first reader panic, if any.
	ReaderPanic string
}

// maxMismatches bounds per-run mismatch classification (each runs a
// sequential replay); maxRepros bounds reproducer minimization (each runs
// up to a full shrink budget of replays).
const (
	maxMismatches = 16
	maxRepros     = 3
)

// OK reports whether every mid-stream observation matched ground truth.
func (r *ReadDuringReport) OK() bool {
	return len(r.Mismatches) == 0 && r.Suppressed == 0 && r.ReaderPanic == ""
}

// observation is one pinned-epoch read, copied out so it survives release.
type observation struct {
	batch  int
	epoch  uint64
	vertex graph.NodeID
	nodes  int
	outDeg int
	inDeg  int
	out    []graph.Neighbor // copied; sorted by ID for comparison
	value  float64
	hasVal bool
}

// rdWriter is the per-batch publication pipeline shared by the live
// concurrent run and the deterministic replay predicate: structure +
// optional mirror + engine + epoch manager, stepped one batch at a time
// exactly as core.Pipeline's apply does.
type rdWriter struct {
	cfg    ReadDuringConfig
	g      ds.Graph
	view   *ds.ComputeView
	engine compute.Engine
	em     *epoch.Manager
	batch  int
}

func newRDWriter(cfg ReadDuringConfig) (*rdWriter, error) {
	w := &rdWriter{cfg: cfg}
	var err error
	if cfg.MakeStructure != nil {
		w.g = cfg.MakeStructure(cfg.DS)
	} else {
		w.g, err = ds.New(cfg.DS, ds.Config{Directed: cfg.Stream.Directed, Threads: cfg.Threads})
		if err != nil {
			return nil, err
		}
	}
	if cfg.ComputeView {
		w.view, _ = ds.NewComputeView(w.g, cfg.Threads)
	}
	w.engine, err = compute.NewEngine(cfg.Alg, cfg.Model, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if cfg.Stream.Deletes {
		if !ds.SupportsDelete(w.g) {
			return nil, fmt.Errorf("crosscheck: %s does not support deletions", cfg.DS)
		}
		if !w.engine.HandlesDeletions() {
			return nil, fmt.Errorf("crosscheck: %s/%s cannot process deletions", cfg.Alg, cfg.Model)
		}
	}
	w.em = epoch.NewManager(w.view != nil)
	return w, nil
}

// step applies one stream step and publishes the post-batch epoch.
func (w *rdWriter) step(st Step) error {
	var olds graph.Batch
	if wca, ok := w.engine.(compute.WeightChangeAware); ok && wca.WantsWeightChanges() {
		olds = ds.Overwritten(w.g, st.Adds)
	}
	w.g.Update(st.Adds)
	if len(st.Dels) > 0 {
		if err := w.g.(ds.Deleter).Delete(st.Dels); err != nil {
			return err
		}
	}
	cg := w.g
	if w.view != nil {
		// The reclaim gate under test: the refresh may not scribble the
		// spare arrays while the snapshot that owns them is pinned.
		if w.em.ReclaimSpare() {
			w.view.DropSpares()
		}
		w.view.Refresh(st.Adds, st.Dels)
		cg = w.view
	}
	if invalidating := append(append(graph.Batch{}, olds...), st.Dels...); len(invalidating) > 0 {
		if da, ok := w.engine.(compute.DeletionAware); ok {
			da.NotifyDeletions(cg, invalidating)
		}
	}
	w.engine.PerformAlg(cg, affectedOf(st, w.g.NumNodes()))

	var csr graph.CSR
	if w.view != nil {
		csr = *w.view.FlatCSR()
	} else {
		csr = *graph.BuildCSR(w.g.NumNodes(), ds.ExportEdges(w.g))
	}
	w.em.Publish(&epoch.Snapshot{
		Batch:    w.batch,
		CSR:      csr,
		Values:   w.engine.ValuesInto(nil),
		Directed: w.cfg.Stream.Directed,
	})
	if w.view == nil {
		w.em.ForgetSpare()
	}
	w.batch++
	return nil
}

// affectedOf mirrors core.Pipeline's affected-set construction.
func affectedOf(st Step, n int) []graph.NodeID {
	var affected []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, b := range []graph.Batch{st.Adds, st.Dels} {
		for _, e := range b {
			for _, v := range [2]graph.NodeID{e.Src, e.Dst} {
				if !seen[v] && int(v) < n {
					seen[v] = true
					affected = append(affected, v)
				}
			}
		}
	}
	return affected
}

// ReadDuring generates the stream for cfg and runs the read-during-update
// differential.
func ReadDuring(cfg ReadDuringConfig) (*ReadDuringReport, error) {
	cfg = cfg.withDefaults()
	stream := NewStream(cfg.Stream)
	return ReplayReadDuring(cfg, stream)
}

// ReplayReadDuring runs the differential over an explicit stream.
func ReplayReadDuring(cfg ReadDuringConfig, stream Stream) (*ReadDuringReport, error) {
	cfg = cfg.withDefaults()
	rep := &ReadDuringReport{Batches: len(stream)}

	// Ground truth, accumulated as the writer advances: the history store
	// replays adjacency to any batch, refs holds the per-batch sequential
	// reference vectors.
	store := snapshot.New(snapshot.Config{Directed: cfg.Stream.Directed, Every: 4})
	oracle := graph.NewOracle(cfg.Stream.Directed)
	refs := make([][]float64, 0, len(stream))

	w, err := newRDWriter(cfg)
	if err != nil {
		return nil, err
	}

	// Concurrent readers: pin, sample random vertices, copy what they see,
	// release. They stop when Pin returns nil after Close. Two rules keep
	// the differential from passing or failing by scheduling luck:
	//
	//   - A reader spends at most perEpoch observations on one epoch, so a
	//     reader that outruns the writer cannot burn its whole cap on the
	//     first epoch and never look at a later, faulty one.
	//   - The writer holds the manager open after the last batch until
	//     every reader has observed the final epoch (or has left its loop),
	//     so a fast stream cannot drain before any reader pinned anything,
	//     and a defect present in the final state is seen by all readers
	//     under any schedule.
	perEpoch := max(1, cfg.MaxObsPerReader/max(1, len(stream)))
	lastBatch := len(stream) - 1
	var wg sync.WaitGroup
	obsPerReader := make([][]observation, cfg.Readers)
	settled := make([]atomic.Bool, cfg.Readers)
	panicCh := make(chan string, cfg.Readers)
	done := make(chan struct{})
	for i := 0; i < cfg.Readers; i++ {
		wg.Add(1)
		go func(slot int, seed int64) {
			defer wg.Done()
			defer settled[slot].Store(true) // cap reached, manager closed, or dead
			defer func() {
				if r := recover(); r != nil {
					select {
					case panicCh <- fmt.Sprintf("reader %d: %v", slot, r):
					default:
					}
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			var obs []observation
			curBatch, onEpoch := -1, 0
			for len(obs) < cfg.MaxObsPerReader {
				s := w.em.Pin()
				if s == nil {
					select {
					case <-done: // writer finished and closed the manager
					default:
						runtime.Gosched() // nothing published yet
						continue
					}
					break
				}
				if s.Batch != curBatch {
					curBatch, onEpoch = s.Batch, 0
				}
				n := s.NumNodes()
				if onEpoch >= perEpoch || n == 0 {
					// This epoch has had its share (or has nothing to
					// observe): wait for the next one.
					w.em.Release(s)
					runtime.Gosched()
					continue
				}
				v := graph.NodeID(rng.Intn(n))
				o := observation{
					batch:  s.Batch,
					epoch:  s.Epoch,
					vertex: v,
					nodes:  n,
					outDeg: s.OutDegree(v),
					inDeg:  s.InDegree(v),
					out:    append([]graph.Neighbor(nil), s.Out(v)...),
				}
				o.value, o.hasVal = s.Value(v)
				sort.Slice(o.out, func(a, b int) bool { return o.out[a].ID < o.out[b].ID })
				obs = append(obs, o)
				onEpoch++
				if s.Batch == lastBatch {
					settled[slot].Store(true)
				}
				w.em.Release(s)
			}
			obsPerReader[slot] = obs
		}(i, cfg.Stream.Seed+int64(i)*7919)
	}

	var stepErr error
	for _, st := range stream {
		oracle.Update(st.Adds)
		oracle.Delete(st.Dels)
		refs = append(refs, compute.MustReference(cfg.Alg, oracle, cfg.Opts))
		store.Observe(st.Adds, st.Dels)
		if stepErr = w.step(st); stepErr != nil {
			break
		}
	}
	// Final-epoch wait: only meaningful when an epoch with vertices exists
	// for readers to observe (a reader on an empty graph records nothing).
	if stepErr == nil && w.g.NumNodes() > 0 && len(stream) > 0 {
		for i := range settled {
			for !settled[i].Load() {
				runtime.Gosched()
			}
		}
	}
	w.em.Close()
	close(done)
	wg.Wait()
	if stepErr != nil {
		return nil, stepErr
	}
	select {
	case rep.ReaderPanic = <-panicCh:
	default:
	}

	// Post-hoc verification: re-answer every observation from ground
	// truth at its pinned batch. Deduplicate failing (batch, vertex)
	// pairs — many readers see the same broken epoch.
	seen := map[[2]int]bool{}
	tol := compute.Tolerance(cfg.Alg)
	for _, obs := range obsPerReader {
		for _, o := range obs {
			rep.Observations++
			key := [2]int{o.batch, int(o.vertex)}
			if seen[key] {
				continue
			}
			detail := checkObservation(o, store, refs, tol)
			rep.Checked++
			if detail == "" {
				continue
			}
			seen[key] = true
			rep.Mismatches = append(rep.Mismatches,
				ReadMismatch{Batch: o.batch, Epoch: o.epoch, Vertex: o.vertex, Detail: detail})
		}
	}
	// Sort before classifying so the capped classification and repro
	// budgets land on the earliest (batch, vertex) pairs deterministically,
	// not on whichever reader happened to report first.
	sort.Slice(rep.Mismatches, func(i, j int) bool {
		if rep.Mismatches[i].Batch != rep.Mismatches[j].Batch {
			return rep.Mismatches[i].Batch < rep.Mismatches[j].Batch
		}
		return rep.Mismatches[i].Vertex < rep.Mismatches[j].Vertex
	})
	if len(rep.Mismatches) > maxMismatches {
		rep.Suppressed = len(rep.Mismatches) - maxMismatches
		rep.Mismatches = rep.Mismatches[:maxMismatches]
	}
	for i := range rep.Mismatches {
		finishMismatch(&rep.Mismatches[i], cfg, stream, i < maxRepros)
	}
	return rep, nil
}

// checkObservation re-answers one observation from ground truth; "" means
// it holds up.
func checkObservation(o observation, store *snapshot.Store, refs [][]float64, tol float64) string {
	if o.batch < 0 || o.batch >= store.Batches() {
		return fmt.Sprintf("pinned batch outside observed range [0,%d)", store.Batches())
	}
	truth, err := store.At(o.batch)
	if err != nil {
		return fmt.Sprintf("ground-truth replay failed: %v", err)
	}
	if o.nodes != truth.NumNodes() {
		return fmt.Sprintf("snapshot has %d vertices, ground truth %d", o.nodes, truth.NumNodes())
	}
	v := o.vertex
	if got, want := o.outDeg, truth.OutDegree(v); got != want {
		return fmt.Sprintf("out-degree %d, ground truth %d", got, want)
	}
	if got, want := o.inDeg, truth.InDegree(v); got != want {
		return fmt.Sprintf("in-degree %d, ground truth %d", got, want)
	}
	want := truth.Out(v) // BuildCSR runs are ID-sorted, like o.out
	if len(o.out) != len(want) {
		return fmt.Sprintf("out-run length %d, ground truth %d", len(o.out), len(want))
	}
	for i := range want {
		if o.out[i].ID != want[i].ID || o.out[i].Weight != want[i].Weight {
			return fmt.Sprintf("out-neighbor %d is (%d,%g), ground truth (%d,%g)",
				i, o.out[i].ID, o.out[i].Weight, want[i].ID, want[i].Weight)
		}
	}
	ref := refs[o.batch]
	if o.hasVal != (int(v) < len(ref)) {
		return fmt.Sprintf("value presence %v, reference vector has %d slots", o.hasVal, len(ref))
	}
	if o.hasVal {
		if idx := compute.DiffValues([]float64{o.value}, []float64{ref[v]}, tol); idx >= 0 {
			return fmt.Sprintf("value %g, reference %g", o.value, ref[v])
		}
	}
	return ""
}

// finishMismatch classifies the mismatch (deterministic or not) and, when
// OutDir is set and the per-run repro budget allows, writes a reproducer —
// minimized for deterministic failures, unshrunk (with a note) for racy
// ones.
func finishMismatch(m *ReadMismatch, cfg ReadDuringConfig, stream Stream, writeRepro bool) {
	pred := func(cand Stream) bool { return sequentialReadCheck(cfg, cand, m.Vertex) != "" }
	m.Deterministic = pred(stream)
	if cfg.OutDir == "" || !writeRepro {
		return
	}
	rep := &Repro{
		Directed: cfg.Stream.Directed,
		Threads:  cfg.Threads,
		DS:       cfg.DS,
		Alg:      cfg.Alg,
		Model:    cfg.Model,
		Source:   cfg.Opts.Source,
		Stream:   stream,
	}
	if m.Deterministic {
		rep.Note = fmt.Sprintf("read-during-update (sequentially reproducible): %s", m)
		rep.Stream = Minimize(stream, pred)
	} else {
		rep.Note = fmt.Sprintf("read-during-update (NOT sequentially reproducible; likely a publication race): %s", m)
	}
	path := fmt.Sprintf("%s/readduring-%s-%s-%s-b%d-v%d.repro", cfg.OutDir, cfg.DS, cfg.Alg, cfg.Model, m.Batch, m.Vertex)
	if err := rep.WriteFile(path); err == nil {
		m.ReproFile = path
	}
}

// sequentialReadCheck replays cand single-writer with no concurrency,
// pinning the published epoch after every batch and re-answering vertex v
// against ground truth immediately. Returns the first mismatch detail, or
// "". This is the deterministic predicate minimization shrinks against.
func sequentialReadCheck(cfg ReadDuringConfig, cand Stream, v graph.NodeID) string {
	w, err := newRDWriter(cfg)
	if err != nil {
		return fmt.Sprintf("construction failed: %v", err)
	}
	defer w.em.Close()
	store := snapshot.New(snapshot.Config{Directed: cfg.Stream.Directed, Every: 4})
	oracle := graph.NewOracle(cfg.Stream.Directed)
	refs := make([][]float64, 0, len(cand))
	tol := compute.Tolerance(cfg.Alg)
	for _, st := range cand {
		oracle.Update(st.Adds)
		oracle.Delete(st.Dels)
		refs = append(refs, compute.MustReference(cfg.Alg, oracle, cfg.Opts))
		store.Observe(st.Adds, st.Dels)
		if err := w.step(st); err != nil {
			return fmt.Sprintf("step failed: %v", err)
		}
		s := w.em.Pin()
		if s == nil {
			return "publish produced no epoch"
		}
		n := s.NumNodes()
		if int(v) < n {
			o := observation{
				batch:  s.Batch,
				epoch:  s.Epoch,
				vertex: v,
				nodes:  n,
				outDeg: s.OutDegree(v),
				inDeg:  s.InDegree(v),
				out:    append([]graph.Neighbor(nil), s.Out(v)...),
			}
			o.value, o.hasVal = s.Value(v)
			sort.Slice(o.out, func(a, b int) bool { return o.out[a].ID < o.out[b].ID })
			w.em.Release(s)
			if detail := checkObservation(o, store, refs, tol); detail != "" {
				return detail
			}
		} else {
			w.em.Release(s)
		}
	}
	return ""
}
