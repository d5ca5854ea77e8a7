package crashloop

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/graph"
)

// Read-during-update differential: one core.Pipeline with ServeQueries on
// replays a stream through ProcessMixed while concurrent readers pin
// epochs through AcquireQuery and record neighborhood/degree/value
// observations mid-stream. The contract checked is the one a pinned reader
// is promised (in the vocabulary of Peri et al.'s concurrent-graph work):
// it sees some published epoch in full, never a torn mix of two. After
// the stream drains, every observation is re-answered from ground truth
// at the observation's pinned batch — the adjacency from a CSR built off
// the sequential oracle as it advanced, the property vector from the
// sequential reference — so a stale, torn, or scribbled epoch surfaces as
// a concrete (batch, vertex) mismatch. Mismatches are minimized to .repro
// files via a deterministic single-threaded re-check when the failure
// survives sequential replay; races that do not are written unshrunk.

// ReadDuringConfig parameterizes one read-during-update run.
type ReadDuringConfig struct {
	// Stream parameterizes generation (ReadDuring generates via
	// crosscheck.NewStream).
	Stream crosscheck.StreamConfig
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
	// ComputeView publishes the incrementally refreshed CSR mirror (the
	// buffer-reuse path, where the reclaim protocol is load-bearing);
	// otherwise every batch publishes a freshly exported CSR.
	ComputeView bool
	// Opts carries algorithm tuning; unset convergence knobs are
	// tightened (see tighten).
	Opts compute.Options
	// Fault, when set, plants the defect in the stream the pipeline
	// ingests while ground truth follows the original (the differential's
	// self-test; see crosscheck.FaultSpec).
	Fault *crosscheck.FaultSpec
	// OutDir, when non-empty, receives one .repro file per distinct
	// mismatching vertex.
	OutDir string
}

func (c ReadDuringConfig) withDefaults() ReadDuringConfig {
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
	c.Opts = tighten(c.Opts)
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

// observe reads vertex v through a pinned handle.
func observe(h *core.QueryHandle, v graph.NodeID) observation {
	o := observation{
		batch:  h.Batch(),
		epoch:  h.Epoch(),
		vertex: v,
		nodes:  h.NumNodes(),
		outDeg: h.OutDegree(v),
		inDeg:  h.InDegree(v),
		out:    append([]graph.Neighbor(nil), h.Out(v)...),
	}
	o.value, o.hasVal = h.Value(v)
	sort.Slice(o.out, func(a, b int) bool { return o.out[a].ID < o.out[b].ID })
	return o
}

// batchTruth is the state after one batch as the sequential oracle and
// reference compute it.
type batchTruth struct {
	csr *graph.CSR
	ref []float64
}

// advance applies one step to the oracle and returns the ground truth of
// the state it reaches.
func advance(oracle *graph.Oracle, st crosscheck.Step, cfg ReadDuringConfig) batchTruth {
	oracle.Update(st.Adds)
	oracle.Delete(st.Dels)
	return batchTruth{
		csr: graph.BuildCSR(oracle.NumNodes(), oracle.Edges()),
		ref: compute.MustReference(cfg.Alg, oracle, cfg.Opts),
	}
}

// newReadPipeline builds the pipeline under test: the same batch runner
// every other caller streams through, with epoch publication on.
func newReadPipeline(cfg ReadDuringConfig) (*core.Pipeline, error) {
	return core.NewPipeline(core.PipelineConfig{
		DataStructure: cfg.DS,
		Algorithm:     cfg.Alg,
		Model:         cfg.Model,
		Directed:      cfg.Stream.Directed,
		Threads:       cfg.Threads,
		Compute:       cfg.Opts,
		ComputeView:   cfg.ComputeView,
		ServeQueries:  true,
	})
}

// ReadDuring generates the stream for cfg and runs the read-during-update
// differential.
func ReadDuring(cfg ReadDuringConfig) (*ReadDuringReport, error) {
	return ReplayReadDuring(cfg, crosscheck.NewStream(cfg.Stream))
}

// ReplayReadDuring runs the differential over an explicit stream.
func ReplayReadDuring(cfg ReadDuringConfig, stream crosscheck.Stream) (*ReadDuringReport, error) {
	cfg = cfg.withDefaults()
	rep := &ReadDuringReport{Batches: len(stream)}

	p, err := newReadPipeline(cfg)
	if err != nil {
		return nil, err
	}
	oracle := graph.NewOracle(cfg.Stream.Directed)
	truth := make([]batchTruth, 0, len(stream))

	// Concurrent readers: pin, sample random vertices, copy what they see,
	// release. They stop when AcquireQuery fails after done is closed. Two
	// rules keep the differential from passing or failing by scheduling
	// luck:
	//
	//   - A reader spends at most perEpoch observations on one epoch, so a
	//     reader that outruns the writer cannot burn its whole cap on the
	//     first epoch and never look at a later, faulty one.
	//   - The writer keeps the pipeline open after the last batch until
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
			defer settled[slot].Store(true) // cap reached, pipeline closed, or dead
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
				h, err := p.AcquireQuery()
				if err != nil {
					select {
					case <-done: // writer finished and closed the pipeline
					default:
						runtime.Gosched() // nothing published yet
						continue
					}
					break
				}
				if h.Batch() != curBatch {
					curBatch, onEpoch = h.Batch(), 0
				}
				n := h.NumNodes()
				if onEpoch >= perEpoch || n == 0 {
					// This epoch has had its share (or has nothing to
					// observe): wait for the next one.
					h.Release()
					runtime.Gosched()
					continue
				}
				obs = append(obs, observe(h, graph.NodeID(rng.Intn(n))))
				onEpoch++
				if h.Batch() == lastBatch {
					settled[slot].Store(true)
				}
				h.Release()
			}
			obsPerReader[slot] = obs
		}(i, cfg.Stream.Seed+int64(i)*7919)
	}

	var stepErr error
	ingest := cfg.Fault.Apply(stream, cfg.Stream.Directed)
	for i, st := range stream {
		truth = append(truth, advance(oracle, st, cfg))
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: ingest[i].Adds, Dels: ingest[i].Dels}); err != nil {
			stepErr = fmt.Errorf("crashloop: read-during-update batch %d: %w", i, err)
			break
		}
	}
	// Final-epoch wait: only meaningful when an epoch with vertices exists
	// for readers to observe (a reader on an empty graph records nothing).
	if stepErr == nil && p.Graph().NumNodes() > 0 && len(stream) > 0 {
		for i := range settled {
			for !settled[i].Load() {
				runtime.Gosched()
			}
		}
	}
	p.Close()
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
			detail := checkObservation(o, truth, tol)
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
func checkObservation(o observation, truth []batchTruth, tol float64) string {
	if o.batch < 0 || o.batch >= len(truth) {
		return fmt.Sprintf("pinned batch outside observed range [0,%d)", len(truth))
	}
	csr := truth[o.batch].csr
	if o.nodes != csr.NumNodes() {
		return fmt.Sprintf("snapshot has %d vertices, ground truth %d", o.nodes, csr.NumNodes())
	}
	v := o.vertex
	if got, want := o.outDeg, csr.OutDegree(v); got != want {
		return fmt.Sprintf("out-degree %d, ground truth %d", got, want)
	}
	if got, want := o.inDeg, csr.InDegree(v); got != want {
		return fmt.Sprintf("in-degree %d, ground truth %d", got, want)
	}
	want := csr.Out(v) // BuildCSR runs are ID-sorted, like o.out
	if len(o.out) != len(want) {
		return fmt.Sprintf("out-run length %d, ground truth %d", len(o.out), len(want))
	}
	for i := range want {
		if o.out[i].ID != want[i].ID || o.out[i].Weight != want[i].Weight {
			return fmt.Sprintf("out-neighbor %d is (%d,%g), ground truth (%d,%g)",
				i, o.out[i].ID, o.out[i].Weight, want[i].ID, want[i].Weight)
		}
	}
	ref := truth[o.batch].ref
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
func finishMismatch(m *ReadMismatch, cfg ReadDuringConfig, stream crosscheck.Stream, writeRepro bool) {
	pred := func(cand crosscheck.Stream) bool { return sequentialReadCheck(cfg, cand, m.Vertex) != "" }
	m.Deterministic = pred(stream)
	if cfg.OutDir == "" || !writeRepro {
		return
	}
	rep := &crosscheck.Repro{
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
		rep.Stream = crosscheck.Minimize(stream, pred)
	} else {
		rep.Note = fmt.Sprintf("read-during-update (NOT sequentially reproducible; likely a publication race): %s", m)
	}
	path := fmt.Sprintf("%s/readduring-%s-%s-%s-b%d-v%d.repro", cfg.OutDir, cfg.DS, cfg.Alg, cfg.Model, m.Batch, m.Vertex)
	if err := rep.WriteFile(path); err == nil {
		m.ReproFile = path
	}
}

// sequentialReadCheck replays cand through a fresh pipeline with no
// concurrency, pinning the published epoch after every batch and
// re-answering vertex v against ground truth immediately. Returns the
// first mismatch detail, or "". This is the deterministic predicate
// minimization shrinks against.
func sequentialReadCheck(cfg ReadDuringConfig, cand crosscheck.Stream, v graph.NodeID) string {
	p, err := newReadPipeline(cfg)
	if err != nil {
		return fmt.Sprintf("construction failed: %v", err)
	}
	defer p.Close()
	oracle := graph.NewOracle(cfg.Stream.Directed)
	truth := make([]batchTruth, 0, len(cand))
	tol := compute.Tolerance(cfg.Alg)
	ingest := cfg.Fault.Apply(cand, cfg.Stream.Directed)
	for i, st := range cand {
		truth = append(truth, advance(oracle, st, cfg))
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: ingest[i].Adds, Dels: ingest[i].Dels}); err != nil {
			return fmt.Sprintf("step failed: %v", err)
		}
		h, err := p.AcquireQuery()
		if err != nil {
			return "publish produced no epoch"
		}
		if int(v) >= h.NumNodes() {
			h.Release()
			continue
		}
		o := observe(h, v)
		h.Release()
		if detail := checkObservation(o, truth, tol); detail != "" {
			return detail
		}
	}
	return ""
}
