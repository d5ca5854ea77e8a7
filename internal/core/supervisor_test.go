package core_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
)

// submitAll feeds a stream through Submit, tolerating health refusals
// (the point of several of these tests) but failing on anything else.
func submitAll(t *testing.T, sup *core.Supervisor, stream crosscheck.Stream) (refused int) {
	t.Helper()
	for i, s := range stream {
		err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels})
		switch {
		case err == nil:
		case errors.Is(err, core.ErrReadOnly) || errors.Is(err, core.ErrFailed):
			refused++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return refused
}

// coldVerify cold-opens the durability directory with injection off and
// checks the recovered state equals the sequential oracle over exactly
// the batches the WAL carries.
func coldVerify(t *testing.T, cfg core.PipelineConfig, stream crosscheck.Stream, minSeq uint64) {
	t.Helper()
	cold := cfg
	cold.Faults = nil
	cold.DegradePolicy = ""
	cold.Health = nil
	dcfg := *cfg.Durable
	dcfg.IO = nil
	dcfg.CheckpointEvery = -1
	cold.Durable = &dcfg
	p, err := core.NewPipeline(cold)
	if err != nil {
		t.Fatalf("cold restart: %v", err)
	}
	defer p.Close()
	seq := p.DurableSeq()
	if seq < minSeq || seq > uint64(len(stream)) {
		t.Fatalf("recovered through seq %d, want in [%d, %d]", seq, minSeq, len(stream))
	}
	oracle := streamOracle(stream[:seq], nil)
	for _, d := range ds.DiffOracle(p.Graph(), oracle, 4) {
		t.Errorf("topology after recovery: %s", d)
	}
	want := compute.MustReference(cfg.Algorithm, oracle, durOpts)
	if v := compute.DiffValues(p.Values(), want, compute.Tolerance(cfg.Algorithm)); v >= 0 {
		t.Fatalf("values diverge at vertex %d after recovery (seq %d)", v, seq)
	}
}

// TestWatchdogRecoversStalledCompute wedges the compute phase of one
// batch with an injected stall far past the phase deadline and checks
// the watchdog fires, the instance is replaced, the stream completes,
// and a cold restart sees every batch — the stalled one included, since
// its WAL append preceded the stall.
func TestWatchdogRecoversStalledCompute(t *testing.T) {
	stream := durableStream(6)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
	})
	cfg.Faults = fault.MustParseSchedule("stall(compute,3,400ms)", 7)
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:       cfg,
		PhaseDeadline:  60 * time.Millisecond,
		WatchdogPoll:   5 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond,
		MaxRestarts:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if refused := submitAll(t, sup, stream); refused != 0 {
		t.Fatalf("%d batches refused; a stall is not a durability fault", refused)
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rep := sup.Report()
	if rep.WatchdogFires == 0 {
		t.Fatal("watchdog never fired on a 400ms stall with a 60ms deadline")
	}
	if rep.Restarts == 0 {
		t.Fatal("stalled instance was never replaced")
	}
	if rep.State != core.Healthy {
		t.Fatalf("final health %v, want healthy (a stall is survivable)", rep.State)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("stall quarantined batches: %v", rep.Quarantined)
	}
	coldVerify(t, cfg, stream, uint64(len(stream)))
}

// TestWatchdogRecoversStalledWALFsync wedges the WAL fsync of one batch
// (a disk that stops answering) far past the stage deadline. Every stage
// signals the watchdog, the durable ones included, so it fires, the
// instance is replaced, and the stream completes. The stalled batch's
// record reached the log before the fsync hung, so recovery replays it
// and the supervisor must not resubmit it: a cold restart sees every
// batch, and exactly len(stream) sequence numbers — none applied twice.
func TestWatchdogRecoversStalledWALFsync(t *testing.T) {
	stream := durableStream(6)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		IO:              fault.MustParseSchedule("stall(wal-fsync,3,400ms)", 7),
	})
	// The stalled worker wakes on a handle the restart abandoned; under a
	// degrade policy that failure must not reach the shared health machine.
	cfg.DegradePolicy = core.DegradeContinue
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:       cfg,
		PhaseDeadline:  60 * time.Millisecond,
		WatchdogPoll:   5 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond,
		MaxRestarts:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if refused := submitAll(t, sup, stream); refused != 0 {
		t.Fatalf("%d batches refused; a stall is not a durability fault", refused)
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rep := sup.Report()
	if rep.WatchdogFires == 0 || rep.Restarts == 0 {
		t.Fatalf("watchdog fires %d, restarts %d on a 400ms fsync stall with a 60ms deadline", rep.WatchdogFires, rep.Restarts)
	}
	if rep.State != core.Healthy {
		t.Fatalf("final health %v, want healthy: the fenced instance degraded it (%+v)", rep.State, rep.Transitions)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("stall quarantined batches: %v", rep.Quarantined)
	}
	if got := sup.DurableSeq(); got != uint64(len(stream)) {
		t.Fatalf("WAL at seq %d after %d batches: one was lost or logged twice", got, len(stream))
	}
	coldVerify(t, cfg, stream, uint64(len(stream)))
}

// TestSupervisorRestartInClaimWindow runs a restart inside the claim
// window of the stream's last batch: after its worker dequeued it and
// before the claim, and after the claim but before the worker re-checks
// its generation. Either way the batch reaches the WAL exactly once: in
// the first case the retired worker hands it on, in the second the restart
// takes the claim and replays it.
func TestSupervisorRestartInClaimWindow(t *testing.T) {
	for _, claimed := range []bool{false, true} {
		t.Run(fmt.Sprintf("claimed=%v", claimed), func(t *testing.T) {
			stream := durableStream(6)
			cfg := durableCfg(t.TempDir(), "cc", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
			sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg, RestartBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int32
			core.SetClaimHook(sup, func(gen uint64, c bool) {
				if c == claimed && calls.Add(1) == int32(len(stream)) {
					core.Restart(sup, gen, "restart in the claim window")
				}
			})
			submitAll(t, sup, stream)
			// Close only once the last batch is applied: a batch handed on
			// after Close began would be shed, which is not this window.
			for deadline := time.Now().Add(5 * time.Second); sup.LastBatch().WALSeq < uint64(len(stream)); {
				if time.Now().After(deadline) {
					t.Fatalf("last applied batch seq %d after 5s, want %d: the batch in the claim window was lost",
						sup.LastBatch().WALSeq, len(stream))
				}
				time.Sleep(time.Millisecond)
			}
			if err := sup.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if rep := sup.Report(); rep.Restarts != 1 || rep.State != core.Healthy {
				t.Fatalf("restarts %d, state %v; want one restart and healthy", rep.Restarts, rep.State)
			}
			if got := sup.DurableSeq(); got != uint64(len(stream)) {
				t.Fatalf("WAL at seq %d after %d batches: one was lost or logged twice", got, len(stream))
			}
			coldVerify(t, cfg, stream, uint64(len(stream)))
		})
	}
}

// TestSupervisorWorkerPanicRestarts injects an error (not a stall) into
// the compute phase of a non-durable pipeline: the panic escapes
// ProcessMixed, the worker captures it, and the supervisor replaces the
// instance instead of dying. Without durability the rebuilt instance
// starts empty — the test only asserts survival and accounting.
func TestSupervisorWorkerPanicRestarts(t *testing.T) {
	stream := durableStream(5)
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline: core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "pr",
			Model:         compute.INC,
			Directed:      true,
			Threads:       2,
			Compute:       durOpts,
			Faults:        fault.MustParseSchedule("eio(compute,2)", 3),
		},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sup, stream)
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rep := sup.Report()
	if rep.Restarts == 0 {
		t.Fatal("compute panic did not restart the pipeline")
	}
	if rep.State != core.Healthy {
		t.Fatalf("final health %v, want healthy after isolated restart", rep.State)
	}
}

// TestSupervisorShedPolicy fills a one-slot queue against a slowed
// pipeline and checks the shed policy drops (and counts) overflow
// instead of blocking the producer.
func TestSupervisorShedPolicy(t *testing.T) {
	stream := durableStream(12)
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline: core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "pr",
			Model:         compute.INC,
			Directed:      true,
			Threads:       2,
			Compute:       durOpts,
			// Every update phase dawdles 20ms so the producer laps the
			// worker (prob 1 = fire on every draw).
			Faults: fault.MustParseSchedule("slow(update,1,20ms)", 5),
		},
		MaxQueue: 1,
		Shed:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, s := range stream {
		if err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); errors.Is(err, core.ErrShed) {
			shed++
		} else if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if shed == 0 {
		t.Fatal("a 1-slot queue against a 20ms/batch worker never shed")
	}
	rep := sup.Report()
	if rep.ShedBatches != uint64(shed) {
		t.Fatalf("report counts %d sheds, producer saw %d", rep.ShedBatches, shed)
	}
	if rep.State != core.Healthy {
		t.Fatalf("shedding is policy, not failure: health %v", rep.State)
	}
}

// TestSupervisorReadOnlyServesQueries pushes the pipeline into
// read-only with a permanent WAL fault and checks the defining contract
// of the state: ingest refused, epoch-snapshot queries still answered.
func TestSupervisorReadOnlyServesQueries(t *testing.T) {
	stream := durableStream(6)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		IO:              fault.MustParseSchedule("enospc(wal-append,3)", 1),
		Retry:           durable.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	cfg.ServeQueries = true
	cfg.DegradePolicy = core.DegradeReadOnly
	sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sup, stream)
	// Wait for the worker to reach the fault (batch 3's append) and the
	// health machine to flip.
	deadline := time.Now().Add(5 * time.Second)
	for sup.Health().State() < core.ReadOnly {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never went read-only")
		}
		time.Sleep(time.Millisecond)
	}
	// Ingest is refused...
	if err := sup.Submit(core.MixedBatch{Adds: stream[0].Adds}); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("read-only submit: %v, want ErrReadOnly", err)
	}
	// ...while queries keep serving the last published epoch.
	h, err := sup.AcquireQuery()
	if err != nil {
		t.Fatalf("read-only query refused: %v", err)
	}
	if h.NumNodes() == 0 {
		t.Fatal("read-only epoch is empty; pre-fault batches were published")
	}
	h.Release()
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rep := sup.Report()
	if rep.State != core.ReadOnly || rep.Refused == 0 {
		t.Fatalf("report %+v: want read-only with refusals counted", rep)
	}
}

// TestSupervisedFaultSoak is the acceptance scenario: a stream driven
// through the supervised runtime under a composite schedule — slow
// fsyncs (prob 0.3), one transient append EIO, one permanent fsync
// ENOSPC, one 400ms compute stall — with a read-only degrade policy and
// queries interleaved. The run must complete without process death,
// retry the transient, restart through the stall, flip read-only on the
// permanent fault while still answering queries, and lose no batch the
// WAL acknowledged.
func TestSupervisedFaultSoak(t *testing.T) {
	stream := durableStream(20)
	dir := t.TempDir()
	sched := fault.MustParseSchedule(
		"slow(wal-fsync,0.3,200us);eio(wal-append,5);enospc(wal-fsync,12);stall(compute,8,400ms)", 42)
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: 5,
		IO:              sched,
		Retry:           durable.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	cfg.Faults = sched
	cfg.ServeQueries = true
	cfg.DegradePolicy = core.DegradeReadOnly
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:       cfg,
		MaxQueue:       8,
		PhaseDeadline:  100 * time.Millisecond,
		WatchdogPoll:   5 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond,
		MaxRestarts:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i, s := range stream {
		err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels})
		if err != nil && !errors.Is(err, core.ErrReadOnly) {
			t.Fatalf("submit %d: %v", i, err)
		}
		if h, qerr := sup.AcquireQuery(); qerr == nil {
			if h.NumNodes() > 0 {
				served++
			}
			h.Release()
		}
	}
	// The permanent fsync fault must have flipped the run read-only —
	// and read-only must still answer queries.
	deadline := time.Now().Add(10 * time.Second)
	for sup.Health().State() < core.ReadOnly {
		if time.Now().After(deadline) {
			t.Fatal("permanent fault never degraded the pipeline")
		}
		time.Sleep(time.Millisecond)
	}
	h, err := sup.AcquireQuery()
	if err != nil {
		t.Fatalf("read-only query refused: %v", err)
	}
	h.Release()
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rep := sup.Report()
	if rep.State != core.ReadOnly {
		t.Fatalf("final health %v, want read-only", rep.State)
	}
	if rep.DurableRetry == 0 {
		t.Fatal("transient EIO was never retried")
	}
	if rep.WatchdogFires == 0 || rep.Restarts == 0 {
		t.Fatalf("stall not recovered: %d fires, %d restarts", rep.WatchdogFires, rep.Restarts)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("soak quarantined batches: %v", rep.Quarantined)
	}
	if len(rep.Injections) == 0 {
		t.Fatal("report carries no injection log")
	}
	if served == 0 {
		t.Fatal("no query was ever served during the soak")
	}
	// Oracle: the recovered state must equal the sequential replay of
	// exactly the WAL-acknowledged prefix — at least the 7 batches that
	// preceded the first disruption.
	coldVerify(t, cfg, stream, 7)
}
