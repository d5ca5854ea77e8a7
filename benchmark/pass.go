package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// options is what one invocation fixes for every workload it runs.
type options struct {
	scale   scale
	seed    int64
	seconds int
	setups  int    // set-up repetitions of the untraced pass (setup_s is their median)
	workDir string // scratch for durability directories and traces, inside the checkout
	// idle is how long the open loop waits without a new epoch, after the
	// last batch was offered, before it declares the rest lost.
	idle time.Duration
}

// passStats is everything one pass over a workload's timed section
// measured, before it is reduced to named metrics.
type passStats struct {
	setupS []float64 // one entry per set-up repetition

	// Per timed batch.
	wallMs, updMs, cmpMs      []float64
	rates                     []float64 // closed loop: updates of the batch / its wall, per second
	viewMs, viewDirty         []float64
	iters, processed, trigger []float64
	viewFull                  int

	sectionS   float64 // closed loop: Σ batch wall; open loop: first due → last epoch visible
	updates    int     // adds + deletes applied in the timed section
	genS       float64
	allocBytes uint64
	gcCycles   uint32
	gcPauseMs  float64
	heapLiveMB float64

	attempted, failed int
	reader            readerStats
	epochs            epoch.Stats

	// Open loop only.
	lateMs        []float64
	backlogMax    int
	checkpoints   uint64
	diskBytes     int64
	loggedUpdates int
	recoveryS     float64
	report        core.HealthReport

	final     finalState
	streamFNV uint64
	verifyS   float64
	problems  []string // verification mismatches; empty = correct
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative allocated bytes without stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcWindow brackets a timed section: GC cycles and pause time inside it,
// then the live heap once it is over.
type gcWindow struct{ before runtime.MemStats }

func openGCWindow() *gcWindow {
	g := &gcWindow{}
	runtime.GC()
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *gcWindow) close(st *passStats) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.gcCycles = m.NumGC - g.before.NumGC
	st.gcPauseMs = float64(m.PauseTotalNs-g.before.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&m)
	st.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
}

// runPipeline drives the assembled program through its public entry
// points only: the untraced pass every end-to-end metric comes from.
func runPipeline(w *workload, opt options) (*passStats, error) {
	if w.durable {
		return runOpen(w, opt)
	}
	return runClosed(w, opt)
}

// runClosed is the closed loop with one client: the next batch is
// generated and handed over only after the previous call returned.
func runClosed(w *workload, opt options) (*passStats, error) {
	st := &passStats{}
	sc := opt.scale
	var p *core.Pipeline
	var s *stream
	for i := 0; i < opt.setups; i++ {
		p, s = nil, nil
		runtime.GC() // the previous repetition's graph is garbage, not this one's cost
		t0 := time.Now()
		s = newStream(w, sc, opt.seed)
		var err error
		if p, err = core.NewPipeline(w.pipelineConfig(sc)); err != nil {
			return nil, err
		}
		for b := 0; b < w.preloadBatches(); b++ {
			adds, dels := s.next(sc.edges(w.preloadBatch))
			if _, err := p.ProcessMixed(core.MixedBatch{Adds: adds, Dels: dels}); err != nil {
				return nil, fmt.Errorf("preload batch %d: %w", b, err)
			}
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
	}

	n := w.timedBatches(opt.seconds)
	preUpdates := s.updates
	gcw := openGCWindow()
	var rd *reader
	if w.reader {
		rd = startReader(func() (session, error) { return p.AcquireQuery() }, sc.nodes, opt.seed)
	}
	for i := 0; i < n; i++ {
		tg := time.Now()
		adds, dels := s.next(sc.edges(w.batch))
		st.genS += time.Since(tg).Seconds()
		a0 := heapAllocs()
		t0 := time.Now()
		lat, err := p.ProcessMixed(core.MixedBatch{Adds: adds, Dels: dels})
		wall := time.Since(t0)
		st.allocBytes += heapAllocs() - a0
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.sectionS += wall.Seconds()
		st.wallMs = append(st.wallMs, ms(wall))
		st.rates = append(st.rates, float64(len(adds)+len(dels))/wall.Seconds())
		st.observeBatch(lat, p.LastViewRefresh(), p.Engine().Stats(), w.view)
	}
	if rd != nil {
		st.reader = rd.stop()
		st.attempted += st.reader.sessions
		st.failed += st.reader.failed
	}
	gcw.close(st)
	st.updates = s.updates - preUpdates
	st.streamFNV = s.fnv
	if em := p.Epochs(); em != nil {
		st.epochs = em.Stats()
	}
	st.final = captureFinal(p.Graph(), p.Values())
	st.verify(w, opt, s, p.Graph())
	return st, p.Close()
}

func (st *passStats) observeBatch(lat core.BatchLatency, view ds.RefreshStats, es compute.Stats, hasView bool) {
	st.updMs = append(st.updMs, ms(lat.Update))
	st.cmpMs = append(st.cmpMs, ms(lat.Compute))
	if hasView {
		st.viewMs = append(st.viewMs, ms(view.Duration))
		st.viewDirty = append(st.viewDirty, view.DirtyFraction())
		if view.Full {
			st.viewFull++
		}
	}
	st.iters = append(st.iters, float64(es.Iterations))
	st.processed = append(st.processed, float64(es.Processed))
	st.trigger = append(st.trigger, es.TriggerFraction())
}

// runOpen is the open loop: batches are offered to a core.Supervisor on a
// fixed schedule whether or not earlier ones are done, and each is timed
// from the instant it was due to the wall-clock stamp of the epoch that
// first shows it to a reader.
func runOpen(w *workload, opt options) (*passStats, error) {
	st := &passStats{}
	sc := opt.scale
	dir := filepath.Join(opt.workDir, "durable")
	pcfg := w.pipelineConfig(sc)
	var sup *core.Supervisor
	var s *stream
	var rec *telemetry.Recorder
	first := w.preloadBatches() // epoch batch index of timed batch 0
	for i := 0; i < opt.setups; i++ {
		if sup != nil {
			if err := sup.Close(); err != nil {
				return nil, err
			}
			sup = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s = newStream(w, sc, opt.seed)
		rec = telemetry.NewRecorder(telemetry.NewRegistry(), nil)
		pcfg.Telemetry = rec
		pcfg.Durable = &durable.Config{
			Dir: dir, Fsync: durable.FsyncAlways, CheckpointEvery: checkpointEvery,
			MaxNodeID: graph.NodeID(sc.nodes - 1),
		}
		var err error
		sup, err = core.NewSupervisor(core.SupervisorConfig{Pipeline: pcfg, MaxQueue: w.maxQueue, Shed: w.shed})
		if err != nil {
			return nil, err
		}
		for b := 0; b < first; b++ {
			adds, _ := s.next(sc.edges(w.preloadBatch))
			if err := sup.Submit(core.MixedBatch{Adds: adds}); err != nil {
				return nil, fmt.Errorf("preload batch %d: %w", b, err)
			}
			// One at a time: the preload must land whole whatever the
			// queue policy, and the timed section must start on an idle worker.
			if err := awaitBatch(sup, b, 60*time.Second); err != nil {
				return nil, err
			}
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(dir)

	n := w.timedBatches(opt.seconds)
	preUpdates := s.updates
	gcw := openGCWindow()
	a0 := heapAllocs()
	wt := startWatcher(sup, first, n, opt.idle)
	dues := make([]time.Time, 0, n) // due time of each accepted batch, in epoch order
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		tg := time.Now()
		adds, _ := s.next(sc.edges(w.batch))
		st.genS += time.Since(tg).Seconds()
		mb := core.MixedBatch{Adds: adds}
		if w.tamper != nil {
			w.tamper(i, &mb, sup)
		}
		due := start.Add(time.Duration(float64(i) / w.perSecond * float64(time.Second)))
		sleepUntil(due)
		st.lateMs = append(st.lateMs, ms(time.Since(due)))
		st.attempted++
		if err := sup.Submit(mb); err != nil {
			st.failed++ // shed or refused
			continue
		}
		dues = append(dues, due)
		wt.accepted.Add(1)
	}
	visible := wt.finish()
	// A batch accepted but never shown was quarantined or errored on the
	// worker; it has no latency and counts as failed.
	st.failed += len(dues) - len(visible)
	for k, at := range visible {
		st.wallMs = append(st.wallMs, ms(at.Sub(dues[k])))
	}
	if len(visible) > 0 {
		st.sectionS = visible[len(visible)-1].Sub(start).Seconds()
	}
	st.allocBytes = heapAllocs() - a0
	gcw.close(st)
	st.attempted += wt.polls
	st.failed += wt.misses
	st.backlogMax = wt.backlogMax
	st.reader.stalenessMax = wt.staleMax
	st.reader.sessions, st.reader.failed = wt.polls, wt.misses
	st.updates = s.updates - preUpdates
	st.loggedUpdates = s.updates
	st.streamFNV = s.fnv

	// The directory is at rest: every accepted batch is logged, and the
	// stream was sized to stop restBatches past the last checkpoint.
	st.checkpoints = rec.Registry().Counter("saga_checkpoints_total", "").Value()
	var err error
	if st.diskBytes, err = dirSize(dir); err != nil {
		return nil, err
	}
	copyDir := dir + "-copy"
	defer os.RemoveAll(copyDir)
	if err := copyFiles(dir, copyDir); err != nil {
		return nil, err
	}
	if err := sup.Close(); err != nil {
		return nil, err
	}
	rep := sup.Report()
	st.report = rep
	if !w.shed && w.tamper == nil && !rep.Healthy() {
		st.problems = append(st.problems, fmt.Sprintf("supervisor ended %s with %d quarantined, %d restarts", rep.State, len(rep.Quarantined), rep.Restarts))
	}
	p := sup.Pipeline()
	st.epochs = p.Epochs().Stats()
	st.final = captureFinal(p.Graph(), p.Values())

	// Recovery probe: what a restart after a crash at this instant costs.
	pcfg.Telemetry = nil
	rcfg := *pcfg.Durable
	rcfg.Dir = copyDir
	pcfg.Durable = &rcfg
	t0 := time.Now()
	rp, err := core.NewPipeline(pcfg)
	st.recoveryS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("recovery probe: %w", err)
	}
	if got, want := rp.DurableSeq(), p.DurableSeq(); got != want {
		st.problems = append(st.problems, fmt.Sprintf("recovered DurableSeq %d, want %d", got, want))
	}
	if d := st.final.diff(captureFinal(rp.Graph(), rp.Values()), w.alg); d != "" {
		st.problems = append(st.problems, "recovered state: "+d)
	}
	if err := rp.Close(); err != nil {
		return nil, err
	}
	st.verify(w, opt, s, p.Graph())
	return st, nil
}

// sleepUntil returns at t to within microseconds: the kernel timer alone
// overshoots by about a millisecond, which the latency of a 1000-edge batch
// would show, so the last stretch is spent yielding instead of sleeping.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// awaitBatch polls until the epoch of batch index b is published.
func awaitBatch(sup *core.Supervisor, b int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h, err := sup.AcquireQuery(); err == nil {
			seen := h.Batch()
			h.Release()
			if seen >= b {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("batch %d not visible after %v", b, timeout)
}

// watcher is the open loop's observer: a reader that polls the supervisor
// every 0.5 ms and notes, for each timed batch, the wall-clock stamp of the
// first epoch it saw that contains the batch.
type watcher struct {
	accepted atomic.Int64 // batches the supervisor took so far
	offered  atomic.Bool  // set once the schedule is exhausted
	done     chan struct{}

	visible    []time.Time
	polls      int
	misses     int // acquisitions that failed although an epoch is published
	backlogMax int
	staleMax   uint64
}

func startWatcher(sup *core.Supervisor, first, n int, idle time.Duration) *watcher {
	wt := &watcher{done: make(chan struct{}), visible: make([]time.Time, 0, n)}
	go func() {
		defer close(wt.done)
		progress := time.Now()
		for {
			wt.polls++
			h, err := sup.AcquireQuery()
			if err != nil {
				wt.misses++
			} else {
				if newest := h.Batch() - first; newest >= len(wt.visible) {
					at := h.Snapshot().Wall
					for len(wt.visible) <= newest {
						wt.visible = append(wt.visible, at)
					}
					progress = time.Now()
				}
				if s := h.Staleness(); s > wt.staleMax {
					wt.staleMax = s
				}
				h.Release()
			}
			backlog := int(wt.accepted.Load()) - len(wt.visible)
			if backlog > wt.backlogMax {
				wt.backlogMax = backlog
			}
			if wt.offered.Load() && (backlog <= 0 || time.Since(progress) > idle) {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	return wt
}

// finish waits until every accepted batch is visible (or the idle timeout
// gives up on the rest) and returns the visibility stamps in epoch order.
func (wt *watcher) finish() []time.Time {
	wt.offered.Store(true)
	<-wt.done
	if n := int(wt.accepted.Load()); len(wt.visible) > n {
		wt.visible = wt.visible[:n]
	}
	return wt.visible
}

func dirSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyFiles copies the regular files of src (a flat durability directory)
// into a fresh dst.
func copyFiles(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}
