// Package durable is the crash-safety layer of the streaming pipeline.
// The paper's driver (Fig 1/2b) assumes every batch arrives well-formed
// and the process never dies; a long-lived service holding an evolving
// graph cannot. This package provides the four pieces the core pipeline
// threads together:
//
//   - a segmented, CRC-checksummed write-ahead log for incoming batches
//     (wal.go) with a configurable fsync policy, segment rotation, and
//     torn-tail detection and truncation on open;
//   - periodic checkpoints (checkpoint.go) serializing the full adjacency
//     plus the compute engine's cross-batch state to an atomically-renamed
//     snapshot file, with WAL segments garbage-collected once covered;
//   - a Manager (manager.go) that wires the two into the recovery
//     protocol: load the newest valid checkpoint, replay the WAL tail,
//     resume mid-stream;
//   - poison-batch quarantine (quarantine.go): malformed or persistently
//     failing batches are written to a replayable .poison file (the
//     crosscheck repro codec, consumed by `sagafuzz -replay`) so the
//     stream keeps moving.
//
// A fault-injection harness is built in: CrashPoint hooks simulate kills
// at every instant of the durability protocol, and fault.go tears and
// bit-flips WAL tails the way an unclean shutdown would. The kill/recover
// soak loop over these hooks lives in internal/crashloop and behind
// `sagafuzz -crash`.
//
// saga:durable — discarded errors here are silent data loss (enforced by
// sagavet's errcheck-durable; see internal/analysis).
package durable

import (
	"fmt"
	"math"
	"time"

	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

// FsyncPolicy selects when the write-ahead log is flushed to stable
// storage.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs after every appended record: no acknowledged
	// batch is ever lost, at the cost of one fsync per batch.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval fsyncs every fsyncEvery (8) records, and on segment
	// rotation and close: a bounded loss window with amortized fsync
	// cost. This is the default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS: fastest, but a power failure
	// can lose the page-cache tail. Torn tails are still detected and
	// truncated on recovery, so the log never wedges.
	FsyncNever FsyncPolicy = "never"
)

// fsyncEvery is the FsyncInterval period in records.
const fsyncEvery = 8

// CrashPoint identifies an instant in the durability protocol where the
// fault-injection harness can simulate a kill. Hooks fire at every point;
// a hook that panics with Crash models the process dying there, leaving
// only the on-disk state for recovery.
type CrashPoint string

// The registered crash points, in protocol order.
const (
	// CrashBeforeAppend fires before a batch record is written to the WAL:
	// the batch is lost and the caller must resubmit it.
	CrashBeforeAppend CrashPoint = "before-append"
	// CrashAfterAppend fires after the record is written (and fsynced per
	// policy) but before the batch is applied in memory: recovery must
	// replay it.
	CrashAfterAppend CrashPoint = "after-append"
	// CrashMidCheckpoint fires after the checkpoint temp file is written
	// and synced but before the atomic rename: recovery must ignore the
	// orphaned temp file and use the previous checkpoint.
	CrashMidCheckpoint CrashPoint = "mid-checkpoint"
	// CrashAfterCheckpoint fires after the rename but before WAL segments
	// are garbage-collected: recovery sees overlapping checkpoint and WAL
	// coverage and must apply each batch exactly once.
	CrashAfterCheckpoint CrashPoint = "after-checkpoint"
	// CrashMidReplay fires between replayed records during recovery
	// itself: a crash during recovery must leave the log recoverable
	// again.
	CrashMidReplay CrashPoint = "mid-replay"
)

// CrashPoints lists every registered crash point in protocol order; the
// kill/recover harness iterates it.
var CrashPoints = []CrashPoint{
	CrashBeforeAppend,
	CrashAfterAppend,
	CrashMidCheckpoint,
	CrashAfterCheckpoint,
	CrashMidReplay,
}

// CrashFunc observes crash points. A production pipeline leaves it nil;
// the harness installs one that panics with Crash at scheduled points.
type CrashFunc func(CrashPoint)

// Crash is the panic value raised by a simulated kill. Drivers recover it,
// drop the in-memory pipeline, and re-open from disk — exactly what a real
// crash forces.
type Crash struct{ Point CrashPoint }

func (c Crash) Error() string { return fmt.Sprintf("durable: simulated crash at %s", c.Point) }

// CrashAt returns a CrashFunc that panics with Crash the nth time point
// fires (counting from 1). Other points pass through untouched.
func CrashAt(point CrashPoint, nth int) CrashFunc {
	n := 0
	return func(p CrashPoint) {
		if p != point {
			return
		}
		n++
		if n == nth {
			panic(Crash{Point: point})
		}
	}
}

// AsCrash reports whether a recovered panic value is a simulated crash.
// The pipeline's panic-recovery wrappers re-raise these instead of
// treating them as poison batches.
func AsCrash(v any) (Crash, bool) {
	c, ok := v.(Crash)
	return c, ok
}

// Config tunes the durability layer. The zero Dir is invalid; every other
// zero value selects a sensible default (see withDefaults). The WAL's
// segment size (1 MiB) and the transient-I/O retry (4 attempts, backoff
// from 1ms doubling to at most 100ms; see retry.go) are fixed.
type Config struct {
	// Dir holds the WAL segments, checkpoints, and quarantined batches.
	// Created if missing.
	Dir string
	// Fsync is the WAL flush policy (default FsyncInterval).
	Fsync FsyncPolicy
	// CheckpointEvery writes a checkpoint every N applied batches
	// (default 64; negative disables periodic checkpoints — a final one
	// is still written on Close).
	CheckpointEvery int
	// MaxRetries re-attempts a failing batch apply before quarantining it
	// (default 2).
	MaxRetries int
	// RetryBackoff is the initial backoff between retries, doubled per
	// attempt (default 1ms).
	RetryBackoff time.Duration
	// MaxNodeID rejects batches naming vertices above this bound during
	// validation; 0 disables the bound.
	MaxNodeID graph.NodeID
	// Crash is the fault-injection hook (nil in production).
	Crash CrashFunc
	// IO is consulted before every WAL and checkpoint I/O operation; an
	// injected error is handled exactly like the operation failing (nil
	// in production). See internal/fault.
	IO fault.Injector
	// ApplyProbe, when set, runs before each batch apply (live and during
	// replay) and fails the apply when it returns an error — the harness
	// uses it to simulate poison batches that pass validation but break
	// the update or compute phase.
	ApplyProbe func(seq uint64, adds, dels graph.Batch) error
}

func (c Config) withDefaults() Config {
	if c.Fsync == "" {
		c.Fsync = FsyncInterval
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	if c.Dir == "" {
		return fmt.Errorf("durable: Config.Dir is required")
	}
	switch c.Fsync {
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return fmt.Errorf("durable: unknown fsync policy %q (have %q, %q, %q)",
			c.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
	}
	return nil
}

// ValidateBatch is the poison gate run before a batch touches the WAL or
// the graph: non-finite or negative weights and (when maxNode is set)
// out-of-bound vertex IDs are rejected. A rejected batch is quarantined
// without consuming a sequence number.
func ValidateBatch(adds, dels graph.Batch, maxNode graph.NodeID) error {
	check := func(kind string, b graph.Batch) error {
		for i, e := range b {
			w := float64(e.Weight)
			if math.IsNaN(w) {
				return fmt.Errorf("durable: %s[%d] (%d->%d): NaN weight", kind, i, e.Src, e.Dst)
			}
			if math.IsInf(w, 0) {
				return fmt.Errorf("durable: %s[%d] (%d->%d): infinite weight", kind, i, e.Src, e.Dst)
			}
			if w < 0 {
				return fmt.Errorf("durable: %s[%d] (%d->%d): negative weight %v", kind, i, e.Src, e.Dst, w)
			}
			if maxNode > 0 && (e.Src > maxNode || e.Dst > maxNode) {
				return fmt.Errorf("durable: %s[%d] (%d->%d): vertex beyond MaxNodeID %d", kind, i, e.Src, e.Dst, maxNode)
			}
		}
		return nil
	}
	if err := check("add", adds); err != nil {
		return err
	}
	return check("del", dels)
}
