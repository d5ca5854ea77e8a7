package durable

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

func TestCheckpointRoundtrip(t *testing.T) {
	cases := []*Checkpoint{
		{Seq: 0, NumNodes: 0},
		{Seq: 7, Directed: true, NumNodes: 4, Edges: []graph.Edge{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 2.5},
		}},
		{Seq: 42, Directed: true, NumNodes: 3,
			Edges: []graph.Edge{{Src: 0, Dst: 2, Weight: 0.25}},
			Engine: &compute.State{
				Values:  []float64{0, 1.5, math.Inf(1)},
				LastN:   3,
				Pending: []graph.NodeID{1, 2},
			}},
		{Seq: 9, NumNodes: 1, Engine: &compute.State{LastN: 1}},
	}
	for _, cp := range cases {
		got, err := decodeCheckpoint(encodeCheckpoint(cp))
		if err != nil {
			t.Fatalf("seq %d: %v", cp.Seq, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("roundtrip: got %+v want %+v", got, cp)
		}
	}
}

func TestCheckpointDecodeErrors(t *testing.T) {
	good := encodeCheckpoint(&Checkpoint{Seq: 3, NumNodes: 2,
		Edges: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}})
	if _, err := decodeCheckpoint([]byte("notaheader")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := decodeCheckpoint(good[:len(good)-3]); err == nil {
		t.Error("truncated body should fail")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := decodeCheckpoint(flipped); err == nil {
		t.Error("checksum mismatch should fail")
	}
	trailing := append(append([]byte(nil), good...), 0xFF)
	if _, err := decodeCheckpoint(trailing); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestCheckpointCorruptFallback corrupts the newest checkpoint on disk
// and checks recovery falls back to the older valid one — the reason
// gcCheckpoints keeps a spare.
func TestCheckpointCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	if cp, err := loadLatestCheckpoint(dir); cp != nil || err != nil {
		t.Fatalf("empty dir: cp=%v err=%v", cp, err)
	}
	old := &Checkpoint{Seq: 5, NumNodes: 2, Edges: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}}
	if err := writeCheckpointFile(dir, old, Config{}, new(Manager).retry); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpointFile(dir, &Checkpoint{Seq: 9, NumNodes: 3}, Config{}, new(Manager).retry); err != nil {
		t.Fatal(err)
	}
	newest := ckptPath(dir, 9)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := loadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 5 {
		t.Fatalf("fallback checkpoint: got %+v, want seq 5", cp)
	}
	// With the fallback gone too, recovery must surface the corruption.
	os.Remove(ckptPath(dir, 5))
	if _, err := loadLatestCheckpoint(dir); err == nil {
		t.Fatal("all-corrupt checkpoints should error, not silently restart empty")
	}
}

// TestManagerRecoverProtocol drives the full protocol — append, stale
// checkpoint, more appends, one quarantine tombstone — and checks a fresh
// manager reconstructs exactly the uncovered, unskipped tail.
func TestManagerRecoverProtocol(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(Config{Dir: dir, Fsync: pol}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				seq, err := m.Append(mkBatch(i, 2), nil)
				if err != nil {
					t.Fatal(err)
				}
				if seq != uint64(i)+1 {
					t.Fatalf("append %d got seq %d", i, seq)
				}
			}
			if err := m.WriteCheckpoint(&Checkpoint{Seq: 3, NumNodes: 8,
				Edges: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}}); err != nil {
				t.Fatal(err)
			}
			if err := m.AppendSkip(5); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			m2, err := Open(Config{Dir: dir, Fsync: pol}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cp, tail, err := m2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil || cp.Seq != 3 {
				t.Fatalf("checkpoint: %+v, want seq 3", cp)
			}
			var seqs []uint64
			for _, r := range tail {
				seqs = append(seqs, r.Seq)
			}
			// Past the checkpoint (4,5,6) minus the tombstoned 5.
			if !reflect.DeepEqual(seqs, []uint64{4, 6}) {
				t.Fatalf("replay tail %v, want [4 6]", seqs)
			}
			if m2.LastSeq() != 6 || m2.CheckpointSeq() != 3 {
				t.Fatalf("LastSeq=%d CheckpointSeq=%d", m2.LastSeq(), m2.CheckpointSeq())
			}
			if seq, err := m2.Append(mkBatch(6, 1), nil); err != nil || seq != 7 {
				t.Fatalf("post-recovery append: seq %d err %v", seq, err)
			}
			m2.Close()
		})
	}
}

// TestManagerRecoverTornTail tears the WAL after an unsynced abandon and
// checks the lost record simply vanishes: recovery resumes one sequence
// earlier and re-appending reuses the freed number.
func TestManagerRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Append(mkBatch(i, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Abandon()
	if n, err := TornTail(dir, 3); err != nil || n == 0 {
		t.Fatalf("TornTail: n=%d err=%v", n, err)
	}
	m2, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, tail, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatalf("no checkpoint was written, got %+v", cp)
	}
	if len(tail) != 4 || m2.LastSeq() != 4 {
		t.Fatalf("after torn tail: %d records, LastSeq %d; want 4", len(tail), m2.LastSeq())
	}
	if seq, err := m2.Append(mkBatch(9, 1), nil); err != nil || seq != 5 {
		t.Fatalf("re-append: seq %d err %v", seq, err)
	}
	m2.Close()
}

// TestAbandonDuringStalledAppend is the supervisor's hand-off: an instance
// is abandoned from another goroutine while its own is stalled inside an
// append (before the record write), and a replacement reopens the
// directory. The stalled append must then fail on the closed handle —
// not reopen the segment and log a record under the replacement — and
// the hand-off must be race-free.
func TestAbandonDuringStalledAppend(t *testing.T) {
	dir := t.TempDir()
	sched := fault.MustParseSchedule("stall(wal-append,2,1s)", 1)
	stalled, release := make(chan struct{}), make(chan struct{})
	sched.SetSleep(func(time.Duration) { close(stalled); <-release })
	m, err := Open(Config{Dir: dir, Fsync: FsyncAlways, IO: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		if _, err := m.Append(mkBatch(0, 2), nil); err != nil {
			errc <- err
			return
		}
		if _, err := m.Append(mkBatch(1, 2), nil); err == nil {
			errc <- errors.New("append on an abandoned manager succeeded")
		}
	}()
	<-stalled
	m.Abandon()
	m2, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	_, tail, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || m2.LastSeq() != 1 {
		t.Fatalf("replacement sees %d records through seq %d, want only the pre-stall one", len(tail), m2.LastSeq())
	}
	m2.Abandon()
}

// TestCrashMidCheckpoint kills the manager between the checkpoint temp
// write and the rename: the orphan .tmp must be ignored and removed, and
// recovery must use the previous checkpoint.
func TestCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Fsync: FsyncAlways,
		Crash: CrashAt(CrashMidCheckpoint, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Append(mkBatch(i, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteCheckpoint(&Checkpoint{Seq: 2, NumNodes: 4}); err != nil {
		t.Fatal(err)
	}
	expectCrash(t, CrashMidCheckpoint, func() {
		m.WriteCheckpoint(&Checkpoint{Seq: 4, NumNodes: 6})
	})
	m.Abandon()
	if _, err := os.Stat(ckptPath(dir, 4) + ".tmp"); err != nil {
		t.Fatalf("crash should leave the orphan temp file: %v", err)
	}

	m2, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("Open left stale temp %s", e.Name())
		}
	}
	cp, tail, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 2 {
		t.Fatalf("recovery used %+v, want the pre-crash checkpoint at seq 2", cp)
	}
	if len(tail) != 2 {
		t.Fatalf("replay tail has %d records, want seqs 3 and 4", len(tail))
	}
	m2.Close()
}

// TestQuarantineFiles checks poison files land in the durability
// directory under their sequence number, and that validation rejects
// (seq 0) never clobber each other.
func TestQuarantineFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := PoisonMeta{Directed: true, Threads: 1, DS: "adjshared", Alg: "pr", Model: compute.INC}
	p1, err := m.Quarantine(meta, 7, "boom", mkBatch(0, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "batch-000007.poison" {
		t.Fatalf("quarantine path %s", p1)
	}
	p2, err := m.Quarantine(meta, 0, "invalid", mkBatch(0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := m.Quarantine(meta, 0, "invalid again", mkBatch(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p3 {
		t.Fatalf("validation rejects clobbered the same file %s", p2)
	}
	m.Close()
}

func TestValidateBatch(t *testing.T) {
	ok := graph.Batch{{Src: 0, Dst: 1, Weight: 1}}
	if err := ValidateBatch(ok, ok, 0); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	bad := []graph.Batch{
		{{Src: 0, Dst: 1, Weight: graph.Weight(math.NaN())}},
		{{Src: 0, Dst: 1, Weight: graph.Weight(math.Inf(1))}},
		{{Src: 0, Dst: 1, Weight: -1}},
	}
	for i, b := range bad {
		if err := ValidateBatch(b, nil, 0); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
		if err := ValidateBatch(nil, b, 0); err == nil {
			t.Errorf("bad delete batch %d accepted", i)
		}
	}
	if err := ValidateBatch(graph.Batch{{Src: 100, Dst: 1, Weight: 1}}, nil, 50); err == nil {
		t.Error("vertex beyond MaxNodeID accepted")
	}
}

// expectCrash runs fn and asserts it panics with a simulated crash at the
// given point.
func expectCrash(t *testing.T, point CrashPoint, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no crash fired at %s", point)
		}
		c, ok := AsCrash(r)
		if !ok {
			panic(r)
		}
		if c.Point != point {
			t.Fatalf("crashed at %s, want %s", c.Point, point)
		}
	}()
	fn()
}
