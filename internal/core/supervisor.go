package core

import (
	"errors"
	"fmt"
	"sync"
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
// One dispatcher goroutine owns the batch in flight. It is the queue's
// only reader: it runs each batch on a goroutine of its own and waits for
// it beside the watchdog tick. A stall past PhaseDeadline, or a panic out
// of ProcessMixed, restarts the instance inline:
//
//	fence old instance -> backoff -> rebuild from disk -> offer the
//	in-flight batch again iff it never reached the WAL -> next dequeue
//
// The in-flight batch stays in the dispatcher until it is applied or
// known durable, so every accepted batch is applied once, in submission
// order, across any number of restarts. None is dropped on the way: a
// batch is only shed at Submit (Shed set), or refused and counted once
// the health machine stops ingest.
//
// Fencing (Pipeline.Fence) is what makes abandoning a stalled batch
// sound: its goroutine may unblock minutes later and run to completion,
// but every durable file operation it would perform is refused, so it
// cannot scribble WAL segments or checkpoints the rebuilt instance now
// owns, and nobody reads its outcome. Its in-memory effects die with the
// old components.

// watchdogPoll is how often the dispatcher checks the stage in flight
// against PhaseDeadline.
const watchdogPoll = 5 * time.Millisecond

// restartBackoff is the delay before each rebuild: restart i waits
// i×restartBackoff, so a crash-looping instance backs off linearly
// instead of spinning on a hot failure.
const restartBackoff = 10 * time.Millisecond

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
	// PhaseDeadline is the watchdog's budget for any one stage (default
	// 1s): a stage running longer is declared stalled and its pipeline
	// instance is replaced.
	PhaseDeadline time.Duration
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

// Supervisor runs a pipeline under watchdog supervision. Build with
// NewSupervisor; feed with Submit; stop with Close.
type Supervisor struct {
	cfg    SupervisorConfig
	health *Health
	rec    *telemetry.Recorder

	queue chan MixedBatch
	// done is closed when the dispatcher has drained the closed queue.
	done chan struct{}

	// subMu serializes Submit against Close so the queue is never closed
	// under an in-flight send.
	subMu  sync.RWMutex
	closed bool

	// mu guards the current/previous pipeline pointers across rebuilds,
	// the dispatcher's copy of its last batch record, and the report
	// accumulators of retired pipeline instances (the live instance is
	// read directly).
	mu              sync.Mutex
	p               *Pipeline
	prev            *Pipeline
	last            BatchRecord
	retiredRetries  uint64
	retiredPoisoned []string

	// restarts is the dispatcher's count of rebuilds.
	restarts int
}

// NewSupervisor builds the first pipeline instance and starts the
// dispatcher.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	cfg.Pipeline.health = NewHealth(cfg.Pipeline.Telemetry)
	p, err := NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:    cfg,
		health: cfg.Pipeline.health,
		rec:    cfg.Pipeline.Telemetry,
		queue:  make(chan MixedBatch, cfg.MaxQueue),
		done:   make(chan struct{}),
		p:      p,
	}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// Nothing is left to run batches: fail, and keep the
				// queue draining so producers and Close are released.
				s.health.To(Failed, fmt.Sprintf("dispatcher panic: %v", r))
				for range s.queue {
					s.health.NoteRefused()
				}
			}
			close(s.done)
		}()
		s.dispatch(p)
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

// dispatch is the dispatcher: it hands the queue's batches to p one at a
// time, in order, until Close closes the queue. Once the supervisor has
// given up on rebuilds (p is nil) every batch is refused and counted, so
// producers blocked on a full queue are released instead of hanging.
func (s *Supervisor) dispatch(p *Pipeline) {
	tick := time.NewTicker(watchdogPoll)
	defer tick.Stop()
	for mb := range s.queue {
		s.rec.RecordQueueDepth(len(s.queue))
		if p == nil {
			s.health.NoteRefused()
			continue
		}
		p = s.offer(p, mb, tick.C)
	}
}

// offer runs mb on p, replacing p on each stall or panic and offering mb
// to the replacement until it is applied or known durable. It returns the
// instance that takes the next batch (nil: no instance is left, and mb
// is refused unless it reached the WAL).
func (s *Supervisor) offer(p *Pipeline, mb MixedBatch, tick <-chan time.Time) *Pipeline {
	for {
		seqBefore := p.DurableSeq()
		cause := s.attempt(p, mb, tick)
		if cause == "" {
			return p
		}
		old := p
		if p = s.restart(old, cause); p == nil {
			// No instance is left to apply mb. One the old instance logged
			// is restored by the next recovery; any other is refused.
			if old.DurableSeq() <= seqBefore {
				s.health.NoteRefused()
			}
			return nil
		}
		if p.DurableSeq() > seqBefore {
			// Past its WAL append the batch is restored by recovery, and
			// offering it again would apply it twice.
			return p
		}
	}
}

// attempt runs mb on p on a goroutine of its own and waits for it beside
// the watchdog tick. It returns "" once the batch has an outcome, or why p
// must be replaced: a stage past its deadline, or a panic out of
// ProcessMixed (the durable path catches apply panics itself, so this is
// the direct path or the machinery around it). An abandoned attempt's
// outcome lands in a buffer nobody reads.
func (s *Supervisor) attempt(p *Pipeline, mb MixedBatch, tick <-chan time.Time) string {
	type outcome struct {
		err   error
		panic any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panic: r}
			}
		}()
		_, err := p.ProcessMixed(mb)
		done <- outcome{err: err}
	}()
	for {
		select {
		case o := <-done:
			if o.panic != nil {
				return fmt.Sprintf("worker panic: %v", o.panic)
			}
			rec := p.LastBatch()
			// Scratch the next batch reuses: the engine's, and the pipeline's.
			rec.Compute.Ranges, rec.Compute.WorkerBusyNS, rec.DS.ChunkLoads = nil, nil, nil
			s.mu.Lock()
			s.last = rec
			s.mu.Unlock()
			if o.err != nil && !errors.Is(o.err, ErrReadOnly) && !errors.Is(o.err, ErrFailed) {
				// Not a refusal the health machine already counted but an
				// unabsorbed durability failure (fail policy): the machine
				// is Failed. Either way the queue keeps draining, so
				// blocked producers are released.
				s.health.To(Failed, fmt.Sprintf("batch failed: %v", o.err))
			}
			return ""
		case <-tick:
			start := p.stageStart.Load()
			if start == 0 || time.Since(time.Unix(0, start)) <= s.cfg.PhaseDeadline {
				continue
			}
			s.health.NoteWatchdogFire()
			return fmt.Sprintf("watchdog: %s phase exceeded %v", StageID(p.stageID.Load()), s.cfg.PhaseDeadline)
		}
	}
}

// restart fences old and rebuilds its replacement from disk. It returns
// nil, leaving the supervisor Failed and old (fenced) serving its
// published epochs, when the restart budget is spent or the rebuild fails.
func (s *Supervisor) restart(old *Pipeline, cause string) *Pipeline {
	// Abandon drops the old instance's WAL handles without flushing —
	// the fence already guarantees it writes nothing more.
	old.Fence()
	old.Abandon()
	s.restarts++
	s.health.NoteRestart()
	if s.restarts > s.cfg.MaxRestarts {
		s.health.To(Failed, fmt.Sprintf("restart budget (%d) exhausted: %s", s.cfg.MaxRestarts, cause))
		return nil
	}
	time.Sleep(time.Duration(s.restarts) * restartBackoff)
	newP, err := NewPipeline(s.cfg.Pipeline)
	if err != nil {
		s.health.To(Failed, fmt.Sprintf("rebuild after %q failed: %v", cause, err))
		return nil
	}
	r := old.HealthReport()
	s.mu.Lock()
	s.retiredRetries += r.DurableRetry
	s.retiredPoisoned = append(s.retiredPoisoned, old.PoisonFiles()...)
	s.prev, s.p = old, newP
	s.mu.Unlock()
	return newP
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
	retries, poisoned := s.retiredRetries, append([]string(nil), s.retiredPoisoned...)
	s.mu.Unlock()
	r := p.HealthReport()
	r.DurableRetry += retries
	r.Quarantined = append(poisoned, r.Quarantined...)
	return r
}

// Close drains the queue, waits for the dispatcher, and closes the
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
	close(s.queue)
	<-s.done
	return s.Pipeline().Close()
}
