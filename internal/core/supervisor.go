package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sagabench/internal/telemetry"
)

// Supervisor is the self-healing runtime around a Pipeline: a bounded
// ingest queue with backpressure or shedding, a watchdog that detects a
// batch stalled in any of its stages (a wedged fsync as much as a wedged
// kernel), and panic-isolated restart — a wedged or dead pipeline instance
// is fenced off and a fresh one is rebuilt from the last durable state
// (checkpoint + WAL), while queries keep serving from the epoch snapshots
// already published. One Health machine threads through every rebuild, so the
// run's degradation history and the final report survive any number of
// pipeline instances.
//
// The recovery protocol on a watchdog fire or worker panic:
//
//	fence old instance -> bump generation -> backoff -> rebuild from
//	disk -> resubmit the in-flight batch iff it never reached the WAL
//	-> new worker resumes the queue
//
// Fencing (Pipeline.Fence) is what makes abandoning a stalled worker
// sound: the old goroutine may unblock minutes later and run to
// completion, but every durable file operation it would perform is
// refused, so it cannot scribble WAL segments or checkpoints the
// rebuilt instance now owns. Its in-memory effects die with the old
// components.

// SupervisorConfig tunes the supervised runtime.
type SupervisorConfig struct {
	// Pipeline is the supervised pipeline's configuration. With a
	// Durable config, rebuilds recover the last durable state; without
	// one, a restart begins from an empty graph (supervision still
	// isolates panics and stalls, but there is no state to restore).
	Pipeline PipelineConfig
	// MaxQueue bounds the ingest queue (default 64). Submit blocks when
	// the queue is full (backpressure) unless Shed is set.
	MaxQueue int
	// Shed, when true, drops the newest batch instead of blocking when
	// the queue is full; Submit then returns ErrShed.
	Shed bool
	// PhaseDeadline is the watchdog's default per-stage budget (default
	// 1s): a stage running longer is declared stalled and its pipeline
	// instance is replaced. PhaseDeadlines overrides it per stage, keyed
	// by stage name ("validate", "wal", "update", "view", "compute",
	// "publish", "checkpoint").
	PhaseDeadline  time.Duration
	PhaseDeadlines map[string]time.Duration
	// WatchdogPoll is the deadline check period (default 5ms).
	WatchdogPoll time.Duration
	// RestartBackoff is the delay before each rebuild (default 10ms);
	// restart i waits i×RestartBackoff, so a crash-looping instance
	// backs off linearly instead of spinning on a hot failure.
	RestartBackoff time.Duration
	// MaxRestarts bounds rebuilds (default 3); exhausting it fails the
	// pipeline. The queue keeps draining so blocked producers never
	// hang — their batches are refused and counted.
	MaxRestarts int
}

func (cfg SupervisorConfig) withDefaults() SupervisorConfig {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.PhaseDeadline <= 0 {
		cfg.PhaseDeadline = time.Second
	}
	if cfg.WatchdogPoll <= 0 {
		cfg.WatchdogPoll = 5 * time.Millisecond
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 10 * time.Millisecond
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	return cfg
}

// ErrShed is returned by Submit when the shed policy drops a batch on a
// full queue.
var ErrShed = errors.New("core: ingest queue full, batch shed")

// errSupClosed is returned by Submit after Close.
var errSupClosed = errors.New("core: supervisor closed")

// inflightBatch is the batch a worker is processing right now, tagged
// with the durable sequence number before it was offered: if a rebuild
// recovers to a sequence at or below seqBefore, the batch never reached
// the WAL and must be resubmitted; if it recovered past it, the WAL
// already carries the batch and resubmitting would double-apply.
type inflightBatch struct {
	seqBefore uint64
	mb        MixedBatch
}

// Supervisor runs a pipeline under watchdog supervision. Build with
// NewSupervisor; feed with Submit; stop with Close.
type Supervisor struct {
	cfg    SupervisorConfig
	health *Health
	rec    *telemetry.Recorder

	queue chan MixedBatch
	done  chan struct{}

	// subMu serializes Submit against Close so the queue is never closed
	// under an in-flight send.
	subMu  sync.RWMutex
	closed bool

	// mu guards the current/previous pipeline pointers across rebuilds,
	// and the worker's copy of its last batch record.
	mu   sync.Mutex
	p    *Pipeline
	prev *Pipeline
	last BatchRecord

	// gen is the pipeline generation; a worker from a superseded
	// generation recognizes itself as stale and stands down. restartMu
	// serializes the fence-rebuild-respawn sequence.
	gen       atomic.Uint64
	restartMu sync.Mutex
	restarts  int

	// inflight is the live generation's claim slot: the batch its worker
	// is processing. Each generation gets a slot of its own, so a retired
	// worker's late claim never lands in its successor's.
	inflight *atomic.Pointer[inflightBatch]

	// claimHook, when set, runs in a worker before (claimed false) and
	// after (claimed true) it claims a dequeued batch. Tests set it to
	// run a restart inside the claim window; it is nil otherwise.
	claimHook func(gen uint64, claimed bool)

	// Report accumulators for retired pipeline instances (the live
	// instance is read directly).
	retiredRetries  uint64
	retiredPoisoned []string

	workers    sync.WaitGroup
	watchdogWG sync.WaitGroup
}

// NewSupervisor builds the first pipeline instance and starts the
// worker and watchdog.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if cfg.Pipeline.Health == nil {
		cfg.Pipeline.Health = NewHealth(cfg.Pipeline.Telemetry)
	}
	s := &Supervisor{
		cfg:    cfg,
		health: cfg.Pipeline.Health,
		rec:    cfg.Pipeline.Telemetry,
		queue:  make(chan MixedBatch, cfg.MaxQueue),
		done:   make(chan struct{}),
	}
	gen := s.gen.Load()
	p, err := NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	s.p = p
	s.inflight = new(atomic.Pointer[inflightBatch])
	s.spawnWorker(gen, p, s.inflight, nil)
	s.watchdogWG.Add(1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.health.To(Failed, fmt.Sprintf("watchdog panic: %v", r))
			}
			s.watchdogWG.Done()
		}()
		s.watchdog()
	}()
	return s, nil
}

// Submit offers one batch to the supervised pipeline. It returns nil
// when the batch is queued, ErrShed when the shed policy dropped it,
// ErrReadOnly/ErrFailed when the health machine refuses ingest, and
// errSupClosed after Close. With Shed unset a full queue blocks the
// caller — backpressure, not loss.
func (s *Supervisor) Submit(mb MixedBatch) error {
	if err := s.health.refuse(); err != nil {
		return err
	}
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	if s.closed {
		return errSupClosed
	}
	if s.cfg.Shed {
		select {
		case s.queue <- mb:
		default:
			s.health.NoteShed()
			return ErrShed
		}
	} else {
		s.queue <- mb
	}
	s.rec.RecordQueueDepth(len(s.queue))
	return nil
}

// spawnWorker starts the dequeue loop for one pipeline generation, which
// claims its batches in slot. first, when non-nil, is the recovered
// in-flight batch: it is processed before the queue so stream order is
// preserved.
func (s *Supervisor) spawnWorker(gen uint64, p *Pipeline, slot *atomic.Pointer[inflightBatch], first *MixedBatch) {
	s.workers.Add(1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// A panic that escaped ProcessMixed (the durable path
				// catches apply panics itself, so this is the direct path
				// or the machinery around it): replace the instance.
				s.restart(gen, fmt.Sprintf("worker panic: %v", r))
			}
			s.workers.Done()
		}()
		if first != nil {
			if !s.processItem(gen, p, slot, *first) {
				return
			}
		}
		for mb := range s.queue {
			s.rec.RecordQueueDepth(len(s.queue))
			if !s.processItem(gen, p, slot, mb) {
				return
			}
		}
	}()
}

// requeue hands a batch a retired worker dequeued back to the live
// worker. Best-effort and non-blocking: a full queue (or a closing
// supervisor) sheds it rather than deadlocking a goroutine that exists
// only to stand down.
func (s *Supervisor) requeue(mb MixedBatch) {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	if !s.closed {
		select {
		case s.queue <- mb:
			return
		default:
		}
	}
	s.health.NoteShed()
}

// processItem claims one batch, runs it and routes its outcome; the false
// return tells the worker its generation is retired.
//
// The claim is stored before the generation is checked. A restart bumps
// the generation before it swaps the claim out, so either the worker
// sees the new generation or the restart sees the claim: a batch between
// dequeue and apply is never in no one's hands.
func (s *Supervisor) processItem(gen uint64, p *Pipeline, slot *atomic.Pointer[inflightBatch], mb MixedBatch) bool {
	if s.claimHook != nil {
		s.claimHook(gen, false)
	}
	inf := &inflightBatch{seqBefore: p.DurableSeq(), mb: mb}
	slot.Store(inf)
	if s.claimHook != nil {
		s.claimHook(gen, true)
	}
	if s.gen.Load() != gen {
		// Retired before the batch began. If the claim is still in the
		// slot, the restart has not swapped it out and never will take
		// it: the worker hands the batch on. Otherwise the restart took
		// it and replays it.
		if slot.CompareAndSwap(inf, nil) {
			s.requeue(mb)
		}
		return false
	}
	_, err := p.ProcessMixed(mb)
	slot.CompareAndSwap(inf, nil)
	if s.gen.Load() == gen {
		rec := p.LastBatch()
		// Scratch the next batch reuses: the engine's, and the pipeline's.
		rec.Compute.Ranges, rec.Compute.WorkerBusyNS, rec.DS.ChunkLoads = nil, nil, nil
		s.mu.Lock()
		s.last = rec
		s.mu.Unlock()
	}
	if errors.Is(err, errFenced) {
		// This generation was retired mid-batch; the restart already
		// captured the in-flight batch for resubmission.
		return false
	}
	if err != nil && !errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrFailed) {
		// Not a refusal the health machine already counted but an
		// unabsorbed durability failure (fail policy): the machine is
		// Failed. Either way keep draining, so blocked producers are
		// released.
		s.health.To(Failed, fmt.Sprintf("batch failed: %v", err))
	}
	return true
}

// watchdog polls the in-flight phase against its deadline and replaces
// the pipeline instance when a phase overstays.
func (s *Supervisor) watchdog() {
	tick := time.NewTicker(s.cfg.WatchdogPoll)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		// The generation is read before its pipeline: paired with a newer
		// pipeline it only makes the restart below a no-op, whereas an older
		// pipeline's stall must never retire a newer generation. A fenced
		// pipeline is already retired (its replacement is being built, or
		// the restart budget ran out); what its abandoned worker does is
		// nobody's stall.
		gen := s.gen.Load()
		p := s.Pipeline()
		start := p.stageStart.Load()
		if start == 0 || p.fenced.Load() {
			continue
		}
		name := StageID(p.stageID.Load()).String()
		deadline := s.cfg.PhaseDeadline
		if d, ok := s.cfg.PhaseDeadlines[name]; ok {
			deadline = d
		}
		if time.Since(time.Unix(0, start)) <= deadline {
			continue
		}
		s.health.NoteWatchdogFire()
		s.restart(gen, fmt.Sprintf("watchdog: %s phase exceeded %v", name, deadline))
	}
}

// restart retires generation gen and brings up its replacement. Calls
// for an already-retired generation are no-ops, so the watchdog and a
// panicking worker can both report the same corpse.
func (s *Supervisor) restart(gen uint64, cause string) {
	s.restartMu.Lock()
	defer s.restartMu.Unlock()
	if s.gen.Load() != gen {
		return
	}
	// No closed check: a restart during Close's drain is legitimate (the
	// queue still holds batches the replacement must process) and safe —
	// the trigger is always a live worker that has not yet Done()d, so
	// workers.Add below never races a zero-counter workers.Wait, and a
	// worker spawned onto an already-closed queue just drains and exits.

	old := s.p
	old.Fence()
	newGen := s.gen.Add(1)

	// Retire the old instance's report contributions before abandoning
	// it (Abandon drops its WAL handles without flushing — the fence
	// already guarantees it writes nothing more).
	r := old.HealthReport()
	s.retiredRetries += r.DurableRetry
	s.retiredPoisoned = append(s.retiredPoisoned, old.PoisonFiles()...)
	old.Abandon()

	s.restarts++
	s.health.NoteRestart()
	if s.restarts > s.cfg.MaxRestarts {
		s.health.To(Failed, fmt.Sprintf("restart budget (%d) exhausted: %s", s.cfg.MaxRestarts, cause))
		// No replacement: the old (fenced) instance keeps serving
		// already-published epochs, and spawnWorker's stale handoff plus
		// Submit's health gate keep the queue from wedging producers.
		s.spawnDrain()
		return
	}
	time.Sleep(time.Duration(s.restarts) * s.cfg.RestartBackoff)

	inf := s.inflight.Swap(nil)
	s.inflight = new(atomic.Pointer[inflightBatch])
	newP, err := NewPipeline(s.cfg.Pipeline)
	if err != nil {
		s.health.To(Failed, fmt.Sprintf("rebuild after %q failed: %v", cause, err))
		s.spawnDrain()
		return
	}
	s.mu.Lock()
	s.prev = old
	s.p = newP
	s.mu.Unlock()

	var first *MixedBatch
	if inf != nil && newP.DurableSeq() <= inf.seqBefore {
		// The in-flight batch died before its WAL append: recovery
		// cannot know it, so the supervisor replays it from memory.
		// (Past the append, recovery restored it from the log and
		// resubmitting would double-apply.)
		first = &inf.mb
	}
	s.spawnWorker(newGen, newP, s.inflight, first)
}

// spawnDrain keeps the queue moving after the supervisor gave up on
// rebuilds: every queued batch is refused and counted, so producers
// blocked on a full queue are released instead of hanging.
func (s *Supervisor) spawnDrain() {
	s.workers.Add(1)
	go func() {
		defer func() {
			// saga:paniccapture — nothing below can panic, but the
			// recover keeps a refactoring accident from killing the
			// process through this goroutine.
			if r := recover(); r != nil {
				s.health.To(Failed, fmt.Sprintf("drain panic: %v", r))
			}
			s.workers.Done()
		}()
		for range s.queue {
			s.health.NoteRefused()
		}
	}()
}

// AcquireQuery pins the latest published epoch, falling back to the
// previous instance's epochs while a rebuild has not yet published —
// read availability does not blink during recovery. A failed
// supervisor refuses queries; a read-only one serves them (that is the
// point of the state).
//
// saga:pin
func (s *Supervisor) AcquireQuery() (*QueryHandle, error) {
	if s.health.State() >= Failed {
		return nil, ErrFailed
	}
	s.mu.Lock()
	p, prev := s.p, s.prev
	s.mu.Unlock()
	h, err := p.AcquireQuery()
	if errors.Is(err, ErrNoEpoch) && prev != nil {
		return prev.AcquireQuery()
	}
	return h, err
}

// Pipeline exposes the current pipeline instance (for tests and value
// inspection; it may be replaced by the next restart).
func (s *Supervisor) Pipeline() *Pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p
}

// LastBatch is the record of the most recent batch the worker ran (see
// BatchRecord), without the per-worker busy times and the chunk loads.
// Safe to call while the stream is running.
func (s *Supervisor) LastBatch() BatchRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Health exposes the shared health machine.
func (s *Supervisor) Health() *Health { return s.health }

// DurableSeq is the last durably logged sequence number of the current
// instance — the resume point a driver's oracle compares against.
func (s *Supervisor) DurableSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.DurableSeq()
}

// Report assembles the run's health report across every pipeline
// instance this supervisor went through.
func (s *Supervisor) Report() HealthReport {
	s.mu.Lock()
	p := s.p
	s.mu.Unlock()
	r := p.HealthReport()
	s.restartMu.Lock()
	r.DurableRetry += s.retiredRetries
	r.Quarantined = append(append([]string(nil), s.retiredPoisoned...), r.Quarantined...)
	s.restartMu.Unlock()
	return r
}

// Close drains the queue, joins the worker and watchdog, and closes the
// current pipeline instance (final checkpoint and WAL flush, unless
// durability already degraded). The returned error is the pipeline
// close error; consult Report for the run's health.
func (s *Supervisor) Close() error {
	s.subMu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.subMu.Unlock()
	if alreadyClosed {
		return errSupClosed
	}
	// Wait out any in-flight restart: a rebuild that began before the
	// closed flag was set must finish spawning its worker before the
	// queue closes, or its workers.Add would race workers.Wait.
	s.restartMu.Lock()
	s.restartMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(s.queue)
	s.workers.Wait()
	close(s.done)
	s.watchdogWG.Wait()
	s.mu.Lock()
	p := s.p
	s.mu.Unlock()
	return p.Close()
}
