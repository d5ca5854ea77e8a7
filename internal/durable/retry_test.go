package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		permanent bool
	}{
		{"nil", nil, false},
		{"enospc", syscall.ENOSPC, true},
		{"erofs", syscall.EROFS, true},
		{"enodev", syscall.ENODEV, true},
		{"permission", os.ErrPermission, true},
		{"not-exist", os.ErrNotExist, true},
		{"eio", syscall.EIO, false},
		{"eintr", syscall.EINTR, false},
		{"short-write", fault.ErrShortWrite, false},
		{"unknown", errors.New("controller hiccup"), false},
		{"wrapped-enospc", fmt.Errorf("durable: WAL fsync: %w",
			&fault.InjectedError{Op: fault.OpWALFsync, Kind: "enospc", Occurrence: 3, Err: syscall.ENOSPC}), true},
		{"wrapped-eio", fmt.Errorf("durable: WAL append: %w",
			&fault.InjectedError{Op: fault.OpWALAppend, Kind: "eio", Occurrence: 1, Err: syscall.EIO}), false},
	}
	for _, tc := range cases {
		if got := Permanent(tc.err); got != tc.permanent {
			t.Errorf("Permanent(%s) = %v, want %v", tc.name, got, tc.permanent)
		}
	}
}

// TestRetryBackoffSchedule pins the backoff: 1ms doubling per retry,
// capped at 100ms.
func TestRetryBackoffSchedule(t *testing.T) {
	want := []time.Duration{1, 2, 4, 8, 16, 32, 64, 100, 100, 100}
	for i, w := range want {
		if got := retryDelay(i + 1); got != w*time.Millisecond {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := retryDelay(64); got != retryMaxDelay {
		t.Errorf("retryDelay(64) = %v, want the %v cap", got, retryMaxDelay)
	}
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	m := new(Manager)
	calls := 0
	err := m.retry("wal-fsync", func() error {
		calls++
		if calls < retryAttempts {
			return syscall.EIO
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient fault should succeed within budget: %v", err)
	}
	if calls != retryAttempts {
		t.Fatalf("want %d attempts, got %d", retryAttempts, calls)
	}
	if got := m.Retries(); got != retryAttempts-1 {
		t.Fatalf("Retries() = %d, want %d", got, retryAttempts-1)
	}
}

func TestRetryPermanentAbortsImmediately(t *testing.T) {
	m := new(Manager)
	calls := 0
	err := m.retry("ckpt-write", func() error {
		calls++
		return fmt.Errorf("write: %w", syscall.ENOSPC)
	})
	if calls != 1 || m.Retries() != 0 {
		t.Fatalf("permanent error ran %d times with %d retries, want once and none", calls, m.Retries())
	}
	var oe *OpError
	if !errors.As(err, &oe) || !oe.Permanent || oe.Attempts != 1 || oe.Op != "ckpt-write" {
		t.Fatalf("want permanent OpError after 1 attempt, got %+v (%v)", oe, err)
	}
	if !IsPermanent(err) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("classification lost through OpError: %v", err)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	m := new(Manager)
	calls := 0
	err := m.retry("wal-append", func() error { calls++; return syscall.EIO })
	if calls != retryAttempts {
		t.Fatalf("want %d attempts, got %d", retryAttempts, calls)
	}
	if got := m.Retries(); got != retryAttempts-1 {
		t.Fatalf("Retries() = %d, want %d", got, retryAttempts-1)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Permanent || oe.Attempts != retryAttempts {
		t.Fatalf("want exhausted transient OpError, got %+v (%v)", oe, err)
	}
	if IsPermanent(err) {
		t.Fatal("exhausted transient budget must not classify permanent")
	}
}

// TestManagerRetriesInjectedFaults drives a manager through a schedule
// that fails one append with EIO and one fsync with a short write: both
// are transient, both retry, and the log recovers byte-perfect.
func TestManagerRetriesInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	sched := fault.MustParseSchedule("eio(wal-append,2);short(wal-append,4)", 1)
	m, err := Open(Config{
		Dir:   dir,
		Fsync: FsyncAlways,
		IO:    sched,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		seq, err := m.Append(mkBatch(i, 2), nil)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i)+1 {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if m.Retries() == 0 {
		t.Fatal("injected transient faults should have counted retries")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tail, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 5 {
		t.Fatalf("recovered %d records, want 5 (torn retry bytes must not corrupt the log)", len(tail))
	}
	for i, r := range tail {
		if r.Seq != uint64(i)+1 || len(r.Adds) != 2 {
			t.Fatalf("record %d: seq %d adds %d", i, r.Seq, len(r.Adds))
		}
	}
}

// TestManagerPermanentFaultSurfaces checks an injected ENOSPC aborts the
// append with a permanent OpError and no sequence consumption, and that
// the next append (disk "freed") succeeds with the same sequence number.
func TestManagerPermanentFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	sched := fault.MustParseSchedule("enospc(wal-append,2)", 1)
	m, err := Open(Config{
		Dir:   dir,
		Fsync: FsyncAlways,
		IO:    sched,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(mkBatch(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	_, err = m.Append(mkBatch(1, 1), nil)
	if err == nil || !IsPermanent(err) {
		t.Fatalf("want permanent failure, got %v", err)
	}
	if m.LastSeq() != 1 {
		t.Fatalf("failed append consumed a sequence number: LastSeq=%d", m.LastSeq())
	}
	if seq, err := m.Append(mkBatch(1, 1), nil); err != nil || seq != 2 {
		t.Fatalf("post-fault append: seq=%d err=%v", seq, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRetriesRename checks an EIO on the checkpoint's atomic
// rename is retried and the checkpoint lands.
func TestCheckpointRetriesRename(t *testing.T) {
	dir := t.TempDir()
	sched := fault.MustParseSchedule("eio(ckpt-rename,1);eio(ckpt-sync,1)", 1)
	m, err := Open(Config{
		Dir:   dir,
		Fsync: FsyncAlways,
		IO:    sched,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Seq: 3, NumNodes: 4, Edges: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}}
	if err := m.WriteCheckpoint(cp); err != nil {
		t.Fatalf("checkpoint with transient rename fault: %v", err)
	}
	got, err := loadLatestCheckpoint(dir)
	if err != nil || got == nil || got.Seq != 3 {
		t.Fatalf("checkpoint did not land: cp=%+v err=%v", got, err)
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(ents) != 0 {
		t.Fatalf("stale temp files left behind: %v", ents)
	}
}
