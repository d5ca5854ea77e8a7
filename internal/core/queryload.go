package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sagabench/internal/graph"
)

// QueryLoad drives N concurrent reader goroutines against a pipeline's
// published epochs while the writer streams batches: the load half of the
// interference experiment and the reader half of the concurrency battery.
// Each reader pins an epoch, issues a burst of neighborhood/degree/
// existence/value queries against it, optionally verifies the snapshot's
// structural invariants and fingerprint stability, and releases.

// QueryLoadConfig tunes the generator.
type QueryLoadConfig struct {
	// Readers is the concurrent reader count (default 1).
	Readers int
	// Seed derives each reader's private query sequence (reader i uses
	// Seed+i), so a run's query pattern is reproducible even though its
	// interleaving with the writer is not.
	Seed int64
	// PerPin is the number of query rounds issued per pinned session
	// (default 32). Longer sessions grow staleness and hold buffers
	// longer, exercising the dropped-buffer path.
	PerPin int
	// Verify turns every session into a property check: the snapshot's
	// structural invariants are verified at pin time, its fingerprint is
	// taken, and the fingerprint is re-checked at release — if the writer
	// scribbled a pinned epoch in the meantime, the battery sees it even
	// when the scribble happens to preserve well-formedness. O(V+E) per
	// session; meant for tests, not for throughput measurement.
	Verify bool
}

// QueryLoadStats summarizes a stopped load.
type QueryLoadStats struct {
	// Queries counts individual reads; Sessions counts pin/release
	// cycles; Misses counts acquisitions before the first publication.
	Queries  uint64
	Sessions uint64
	Misses   uint64
	// MaxStaleness is the largest batch-lag any session observed at
	// release.
	MaxStaleness uint64
	// Violations counts consistency failures (torn epochs, fingerprint
	// drift, reader panics); FirstViolation describes the first.
	Violations     uint64
	FirstViolation string
	// Elapsed is the wall time between start and stop; QPS is
	// Queries/Elapsed.
	Elapsed time.Duration
}

// QPS is the load's served query throughput.
func (s QueryLoadStats) QPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// Add folds another load's stats into s: counts and wall time add up,
// staleness takes the larger, and the first violation stays first.
func (s *QueryLoadStats) Add(o QueryLoadStats) {
	s.Queries += o.Queries
	s.Sessions += o.Sessions
	s.Misses += o.Misses
	s.MaxStaleness = max(s.MaxStaleness, o.MaxStaleness)
	s.Violations += o.Violations
	if s.FirstViolation == "" {
		s.FirstViolation = o.FirstViolation
	}
	s.Elapsed += o.Elapsed
}

// QueryLoad is a running reader fleet; Stop joins it and reports.
type QueryLoad struct {
	p     *Pipeline
	cfg   QueryLoadConfig
	stop  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	queries    atomic.Uint64
	sessions   atomic.Uint64
	misses     atomic.Uint64
	maxStale   atomic.Uint64
	violations atomic.Uint64
	violMu     sync.Mutex
	firstViol  string
}

// StartQueryLoad launches the readers. The pipeline must have been built
// with ServeQueries; the caller must Stop the load before closing the
// pipeline's owner (stopping after Close is safe — readers then just
// count misses until joined).
func StartQueryLoad(p *Pipeline, cfg QueryLoadConfig) (*QueryLoad, error) {
	if p.em == nil {
		return nil, ErrQueriesOff
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 1
	}
	if cfg.PerPin <= 0 {
		cfg.PerPin = 32
	}
	q := &QueryLoad{p: p, cfg: cfg, stop: make(chan struct{}), start: time.Now()}
	for i := 0; i < cfg.Readers; i++ {
		q.wg.Add(1)
		go func(seed int64) {
			defer func() {
				if r := recover(); r != nil {
					q.noteViolation(fmt.Sprintf("reader panic: %v", r))
				}
				q.wg.Done()
			}()
			q.reader(seed)
		}(cfg.Seed + int64(i))
	}
	return q, nil
}

// Served reports the queries answered so far, without stopping the
// fleet. Writers use it to keep serving until the readers have actually
// observed something (a stream can outrun reader scheduling on small
// machines, and a zero-query run proves nothing).
func (q *QueryLoad) Served() uint64 { return q.queries.Load() }

// Stop joins the readers and returns the accumulated stats.
func (q *QueryLoad) Stop() QueryLoadStats {
	close(q.stop)
	q.wg.Wait()
	q.violMu.Lock()
	first := q.firstViol
	q.violMu.Unlock()
	return QueryLoadStats{
		Queries:        q.queries.Load(),
		Sessions:       q.sessions.Load(),
		Misses:         q.misses.Load(),
		MaxStaleness:   q.maxStale.Load(),
		Violations:     q.violations.Load(),
		FirstViolation: first,
		Elapsed:        time.Since(q.start),
	}
}

func (q *QueryLoad) noteViolation(msg string) {
	q.violations.Add(1)
	q.violMu.Lock()
	if q.firstViol == "" {
		q.firstViol = msg
	}
	q.violMu.Unlock()
}

// reader is one goroutine's pin/query/release loop.
func (q *QueryLoad) reader(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		h, err := q.p.AcquireQuery()
		if err != nil {
			q.misses.Add(1)
			runtime.Gosched()
			continue
		}
		q.session(rng, h)
	}
}

// session runs one pinned burst. Every round cross-checks what the
// snapshot's own invariants promise for free: a vertex's reported degree
// matches its run length, every neighbor is inside the vertex space, and
// a listed neighbor answers HasEdge — so even the non-Verify load is a
// continuous (cheap) torn-epoch detector.
func (q *QueryLoad) session(rng *rand.Rand, h *QueryHandle) {
	defer h.Release()
	var fp uint64
	if q.cfg.Verify {
		if err := h.Snapshot().CheckConsistent(); err != nil {
			q.noteViolation(fmt.Sprintf("epoch %d pinned inconsistent: %v", h.Epoch(), err))
			return
		}
		fp = h.Snapshot().Fingerprint()
	}
	n := h.NumNodes()
	reads := uint64(1)
	for i := 0; i < q.cfg.PerPin && n > 0; i++ {
		v := graph.NodeID(rng.Intn(n))
		deg := h.OutDegree(v)
		run := h.Out(v)
		reads += 2
		if len(run) != deg {
			q.noteViolation(fmt.Sprintf("epoch %d: vertex %d degree %d but run length %d", h.Epoch(), v, deg, len(run)))
			return
		}
		if deg > 0 {
			nb := run[rng.Intn(deg)]
			if int(nb.ID) >= n {
				q.noteViolation(fmt.Sprintf("epoch %d: vertex %d lists neighbor %d outside space of %d", h.Epoch(), v, nb.ID, n))
				return
			}
			if _, ok := h.HasEdge(v, nb.ID); !ok {
				q.noteViolation(fmt.Sprintf("epoch %d: listed edge %d->%d fails HasEdge", h.Epoch(), v, nb.ID))
				return
			}
			reads++
		}
		if _, ok := h.Value(v); ok {
			reads++
		}
	}
	if q.cfg.Verify && n > 0 {
		if got := h.Snapshot().Fingerprint(); got != fp {
			q.noteViolation(fmt.Sprintf("epoch %d: fingerprint changed while pinned (%#x -> %#x)", h.Epoch(), fp, got))
			return
		}
	}
	if st := h.Staleness(); st > q.maxStale.Load() {
		for {
			cur := q.maxStale.Load()
			if st <= cur || q.maxStale.CompareAndSwap(cur, st) {
				break
			}
		}
	}
	q.queries.Add(reads)
	q.sessions.Add(1)
}
