package durable

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// Manager owns one durability directory: the WAL, the checkpoints, and
// the quarantine files. The core pipeline drives it — Append before each
// apply, WriteCheckpoint periodically, Recover on construction — so all
// sequencing invariants (append-before-apply, checkpoint-covers-prefix)
// live in one place.
type Manager struct {
	cfg Config
	rec *telemetry.Recorder
	w   *wal

	// lastSeq is the highest sequence number appended or recovered. Only
	// the batch goroutine writes it; supervisors read it concurrently.
	lastSeq atomic.Uint64
	ckptSeq uint64 // sequence covered by the newest durable checkpoint

	retries atomic.Uint64 // I/O retry count (read by health reports concurrently)

	lastAppendBytes int           // record size of the most recent Append
	lastAppendFsync time.Duration // fsync latency of the most recent Append (0 = policy skipped)
}

// Open validates cfg, creates the directory if needed, clears stale
// checkpoint temp files, and returns a manager ready for Recover. rec may
// be nil (telemetry disabled).
func Open(cfg Config, rec *telemetry.Recorder) (*Manager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	removeStaleTemps(cfg.Dir)
	return &Manager{cfg: cfg, rec: rec, w: openWAL(cfg.Dir, cfg)}, nil
}

// Recover loads the newest valid checkpoint and the WAL records that
// recovery must replay on top of it: every non-skip record with a
// sequence number past the checkpoint, minus any sequence tombstoned by a
// skip record (a previously quarantined batch). It is re-callable — the
// quarantine path recovers mid-stream after appending a skip.
func (m *Manager) Recover() (*Checkpoint, []Record, error) {
	cp, err := loadLatestCheckpoint(m.cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	recs, err := m.w.load()
	if err != nil {
		return nil, nil, err
	}
	var cpSeq uint64
	if cp != nil {
		cpSeq = cp.Seq
		m.ckptSeq = cp.Seq
	}
	skipped := make(map[uint64]bool)
	for _, r := range recs {
		if r.Skip {
			skipped[r.Seq] = true
		}
	}
	var tail []Record
	last := cpSeq
	for _, r := range recs {
		if r.Seq > last {
			last = r.Seq
		}
		if r.Skip || r.Seq <= cpSeq || skipped[r.Seq] {
			continue
		}
		tail = append(tail, r)
	}
	m.lastSeq.Store(last)
	m.rec.RecordRecovery(len(tail))
	return cp, tail, nil
}

// Append durably logs a batch before it is applied, returning its
// sequence number. The crash hooks bracket the write: a kill before the
// append loses the (unacknowledged) batch, a kill after it must be
// repaired by replay. The record write and the policy fsync are retried
// as separate units — a failed fsync is re-attempted without
// re-appending the record, and a torn partial write is truncated away
// before the next attempt (wal.repairTail). Failure after retries
// surfaces as an *OpError carrying the transient/permanent
// classification the supervisor degrades on.
//
// saga:classified
func (m *Manager) Append(adds, dels graph.Batch) (uint64, error) {
	if m.cfg.Crash != nil {
		m.cfg.Crash(CrashBeforeAppend)
	}
	seq := m.lastSeq.Load() + 1
	var n int
	err := m.retry("wal-append", func() error {
		var aerr error
		n, aerr = m.w.appendRecord(Record{Seq: seq, Adds: adds, Dels: dels})
		return aerr
	})
	if err != nil {
		return 0, err
	}
	var fsync time.Duration
	err = m.retry("wal-fsync", func() error {
		var serr error
		fsync, serr = m.w.maybeSync()
		return serr
	})
	if err != nil {
		return 0, err
	}
	m.lastSeq.Store(seq)
	m.lastAppendBytes, m.lastAppendFsync = n, fsync
	if m.cfg.Crash != nil {
		m.cfg.Crash(CrashAfterAppend)
	}
	return seq, nil
}

// LastAppendStats reports the record size and fsync latency of the most
// recent Append (fsync 0 when the policy skipped it): the pipeline's wal
// stage copies them into the batch's record, which feeds the WAL metrics
// and the wal.append span.
func (m *Manager) LastAppendStats() (bytes int, fsync time.Duration) {
	return m.lastAppendBytes, m.lastAppendFsync
}

// AppendSkip tombstones seq in the log: recovery will never replay it
// again. Written (and fsynced — a lost tombstone would resurrect the
// poison batch) when a logged batch is quarantined.
//
// saga:classified
func (m *Manager) AppendSkip(seq uint64) error {
	err := m.retry("wal-append", func() error {
		_, aerr := m.w.appendRecord(Record{Seq: seq, Skip: true})
		return aerr
	})
	if err != nil {
		return err
	}
	return m.retry("wal-fsync", m.w.sync)
}

// WriteCheckpoint atomically persists cp and garbage-collects the WAL
// segments and older checkpoints it covers.
//
// saga:classified
func (m *Manager) WriteCheckpoint(cp *Checkpoint) error {
	if err := writeCheckpointFile(m.cfg.Dir, cp, m.cfg, m.retry); err != nil {
		return err
	}
	m.ckptSeq = cp.Seq
	m.rec.RecordCheckpoint()
	if m.cfg.Crash != nil {
		m.cfg.Crash(CrashAfterCheckpoint)
	}
	m.w.gc(cp.Seq)
	gcCheckpoints(m.cfg.Dir)
	return nil
}

// LastSeq is the highest sequence number appended or recovered. Safe to
// read concurrently with Append.
func (m *Manager) LastSeq() uint64 { return m.lastSeq.Load() }

// Retries is the total number of I/O retries spent so far (WAL appends,
// fsyncs, and checkpoint writes together). Safe to read concurrently —
// health reports poll it.
func (m *Manager) Retries() uint64 { return m.retries.Load() }

// CheckpointSeq is the sequence covered by the newest durable checkpoint.
func (m *Manager) CheckpointSeq() uint64 { return m.ckptSeq }

// Config returns the manager's effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Sync forces the WAL tail to stable storage regardless of policy.
func (m *Manager) Sync() error { return m.w.sync() }

// Close flushes and closes the WAL.
func (m *Manager) Close() error { return m.w.close() }

// Abandon releases the WAL file handle without flushing: the file-handle
// hygiene of a simulated kill, leaving the on-disk state exactly as the
// crash left it. The kill/recover harness calls it on pipelines it drops,
// and the supervisor on an instance it has fenced — whose worker may be
// asleep inside an append on another goroutine. So Abandon only closes
// the handle and leaves it in place: os.File orders the close against
// the in-flight call, and everything the woken worker then tries fails
// with os.ErrClosed instead of reopening the segment the replacement
// owns. The manager is dead afterwards.
func (m *Manager) Abandon() {
	if f := m.w.f.Load(); f != nil {
		// saga:allow errcheck-durable -- Abandon simulates a kill: losing unflushed data is the point.
		f.Close()
	}
}
