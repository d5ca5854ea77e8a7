package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// submitAll feeds a stream through Submit, tolerating health refusals
// (the point of several of these tests) but failing on anything else. It
// returns the stream indices Submit accepted, in submission order.
func submitAll(t *testing.T, sup *core.Supervisor, stream crosscheck.Stream) (accepted []int) {
	t.Helper()
	for i, s := range stream {
		err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels})
		switch {
		case err == nil:
			accepted = append(accepted, i)
		case errors.Is(err, core.ErrReadOnly) || errors.Is(err, core.ErrFailed):
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return accepted
}

// streamOrder is the stream-order oracle: installed as the durable
// ApplyProbe, it records which stream batch each WAL sequence number
// carried — live applies and recovery replays alike, the last attempt
// winning — so a test can check the log against submission order.
type streamOrder struct {
	index map[string]int // batch contents -> stream index

	mu   sync.Mutex
	seqs map[uint64]int // WAL seq -> stream index
}

func newStreamOrder(t *testing.T, stream crosscheck.Stream) *streamOrder {
	t.Helper()
	o := &streamOrder{index: make(map[string]int, len(stream)), seqs: make(map[uint64]int)}
	for i, s := range stream {
		k := batchKey(s.Adds, s.Dels)
		if j, dup := o.index[k]; dup {
			t.Fatalf("stream batches %d and %d are identical: the oracle cannot tell them apart", j, i)
		}
		o.index[k] = i
	}
	return o
}

func batchKey(adds, dels graph.Batch) string { return fmt.Sprint(adds, dels) }

// reached reports whether a batch was applied, live or by recovery, under
// WAL seq.
func (o *streamOrder) reached(seq uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.seqs[seq]
	return ok
}

func (o *streamOrder) probe(seq uint64, adds, dels graph.Batch) error {
	i, ok := o.index[batchKey(adds, dels)]
	if !ok {
		i = -1
	}
	o.mu.Lock()
	o.seqs[seq] = i
	o.mu.Unlock()
	return nil
}

// check asserts that WAL seq k carried accepted[k-1]: every sequence
// number through the highest one applied holds the next accepted batch,
// none is skipped or taken twice, and the log reached at least through.
// A batch refused at Submit is not in accepted; one refused after it was
// accepted (the health machine flipped while it was queued) can only
// trail the last logged batch. A validation reject consumes no sequence
// number, so a caller whose stream has one leaves it out of accepted.
func (o *streamOrder) check(t *testing.T, accepted []int, through uint64) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	var last uint64
	for seq := range o.seqs {
		last = max(last, seq)
	}
	if last < through {
		t.Fatalf("applies reached seq %d, but the WAL is durable through %d", last, through)
	}
	if last > uint64(len(accepted)) {
		t.Fatalf("applies reached seq %d for %d accepted batches: a batch was logged twice", last, len(accepted))
	}
	for seq := uint64(1); seq <= last; seq++ {
		got, ok := o.seqs[seq]
		if want := accepted[seq-1]; !ok || got != want {
			t.Fatalf("WAL seq %d carries stream batch %d (applied: %v), want %d: stream order broken", seq, got, ok, want)
		}
	}
}

// coldVerify cold-opens the durability directory with injection off and
// checks the recovered state equals the sequential oracle over exactly
// the batches the WAL carries.
func coldVerify(t *testing.T, cfg core.PipelineConfig, stream crosscheck.Stream, minSeq uint64) {
	t.Helper()
	cold := cfg
	cold.Faults = nil
	cold.DegradePolicy = ""
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
	order := newStreamOrder(t, stream)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		ApplyProbe:      order.probe,
	})
	cfg.Faults = fault.MustParseSchedule("stall(compute,3,400ms)", 7)
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:      cfg,
		PhaseDeadline: 60 * time.Millisecond,
		MaxRestarts:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := submitAll(t, sup, stream)
	if refused := len(stream) - len(accepted); refused != 0 {
		t.Fatalf("%d batches refused; a stall is not a durability fault", refused)
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	order.check(t, accepted, uint64(len(stream)))
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
	order := newStreamOrder(t, stream)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: -1,
		IO:              fault.MustParseSchedule("stall(wal-fsync,3,400ms)", 7),
		ApplyProbe:      order.probe,
	})
	// The stalled worker wakes on a handle the restart abandoned; under a
	// degrade policy that failure must not reach the shared health machine.
	cfg.DegradePolicy = core.DegradeContinue
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:      cfg,
		PhaseDeadline: 60 * time.Millisecond,
		MaxRestarts:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := submitAll(t, sup, stream)
	if refused := len(stream) - len(accepted); refused != 0 {
		t.Fatalf("%d batches refused; a stall is not a durability fault", refused)
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	order.check(t, accepted, uint64(len(stream)))
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

// TestSupervisorRestartInClaimWindow stalls the stream's last batch past
// its deadline while Close is already waiting for the queue to drain: the
// restart lands on the batch the dispatcher holds, after the queue was
// closed behind it. The batch reaches the WAL exactly once — its append
// preceded the stall, so recovery restores it and it is not offered again.
func TestSupervisorRestartInClaimWindow(t *testing.T) {
	stream := durableStream(6)
	cfg := durableCfg(t.TempDir(), "cc", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
	cfg.Faults = fault.MustParseSchedule(fmt.Sprintf("stall(compute,%d,400ms)", len(stream)), 7)
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:      cfg,
		PhaseDeadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sup, stream)
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
}

// TestSupervisorRestartKeepsStreamOrder stalls the compute stage of the
// third of 40 batches past its deadline while every update dawdles 20ms,
// so the queue still holds most of the stream when the instance is
// replaced. Every accepted batch must reach the WAL exactly once, in
// submission order, and none may be shed (Shed is off) — whether Close
// comes at once, with the queue full, or after the queue drained.
func TestSupervisorRestartKeepsStreamOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain bool
	}{{"close-at-once", false}, {"close-after-drain", true}} {
		t.Run(tc.name, func(t *testing.T) {
			stream := durableStream(40)
			order := newStreamOrder(t, stream)
			cfg := durableCfg(t.TempDir(), "pr", &durable.Config{
				Fsync:           durable.FsyncAlways,
				CheckpointEvery: -1,
				ApplyProbe:      order.probe,
			})
			cfg.Faults = fault.MustParseSchedule("slow(update,1,20ms);stall(compute,3,400ms)", 7)
			sup, err := core.NewSupervisor(core.SupervisorConfig{
				Pipeline:      cfg,
				PhaseDeadline: 60 * time.Millisecond,
				// A loaded host can push a 20ms update past the deadline
				// too; those restarts must not change the order either.
				MaxRestarts: len(stream),
			})
			if err != nil {
				t.Fatal(err)
			}
			accepted := submitAll(t, sup, stream)
			if len(accepted) != len(stream) {
				t.Fatalf("%d of %d batches accepted; a stall is not a durability fault", len(accepted), len(stream))
			}
			if tc.drain {
				// The last batch may be applied by a rebuild's recovery
				// rather than by an attempt, so wait on the probe.
				for deadline := time.Now().Add(30 * time.Second); !order.reached(uint64(len(stream))); {
					if time.Now().After(deadline) {
						sup.Close()
						t.Fatalf("no batch applied under seq %d after 30s", len(stream))
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := sup.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			rep := sup.Report()
			if rep.Restarts == 0 {
				t.Fatal("stalled instance was never replaced")
			}
			if rep.ShedBatches != 0 || rep.State != core.Healthy {
				t.Fatalf("shed %d, state %v (%+v); want nothing shed and healthy with Shed off", rep.ShedBatches, rep.State, rep.Transitions)
			}
			if got := sup.DurableSeq(); got != uint64(len(stream)) {
				t.Fatalf("WAL at seq %d after %d accepted batches: one was lost or logged twice", got, len(stream))
			}
			order.check(t, accepted, uint64(len(stream)))
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

// TestSupervisorExhaustedRestartsAccountEveryBatch panics the compute
// stage of batch 2 twice, once more than the restart budget allows: the
// supervisor fails with that batch in flight. The batch never reached a
// WAL, so nothing can restore it; it must be counted refused like every
// batch after it, and every offered batch is then applied, shed or
// refused in the report.
func TestSupervisorExhaustedRestartsAccountEveryBatch(t *testing.T) {
	stream := durableStream(5)
	reg := telemetry.NewRegistry()
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline: core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "pr",
			Model:         compute.INC,
			Directed:      true,
			Threads:       2,
			Compute:       durOpts,
			Telemetry:     telemetry.NewRecorder(reg, nil),
			Faults:        fault.MustParseSchedule("eio(compute,2);eio(compute,3)", 3),
		},
		MaxRestarts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := submitAll(t, sup, stream)
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rep := sup.Report()
	if rep.State != core.Failed {
		t.Fatalf("final health %v, want failed once the restart budget is spent", rep.State)
	}
	// Refused also counts the batches Submit turned away itself.
	refusedAtSubmit := uint64(len(stream) - len(accepted))
	applied := reg.Counter("saga_batches_total", "").Value()
	if got := applied + rep.Refused - refusedAtSubmit + rep.ShedBatches; got != uint64(len(accepted)) {
		t.Fatalf("%d batches accepted, but %d applied + %d refused + %d shed: a batch is missing from the report",
			len(accepted), applied, rep.Refused-refusedAtSubmit, rep.ShedBatches)
	}
}

// TestSupervisorDurableSeqConcurrentRead polls Supervisor.DurableSeq from
// a second goroutine while a supervised durable stream runs (meaningful
// under -race): the batch goroutine advances the WAL sequence the poller
// reads.
func TestSupervisorDurableSeqConcurrentRead(t *testing.T) {
	stream := durableStream(20)
	cfg := durableCfg(t.TempDir(), "pr", &durable.Config{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
	sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var seen uint64
	backwards := false
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := sup.DurableSeq()
			backwards = backwards || seq < seen
			seen = max(seen, seq)
		}
	}()
	submitAll(t, sup, stream)
	if err := sup.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	<-done
	if backwards {
		t.Fatal("DurableSeq went backwards during the stream")
	}
	if got := sup.DurableSeq(); got != uint64(len(stream)) {
		t.Fatalf("WAL at seq %d after %d batches", got, len(stream))
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
	order := newStreamOrder(t, stream)
	dir := t.TempDir()
	sched := fault.MustParseSchedule(
		"slow(wal-fsync,0.3,200us);eio(wal-append,5);enospc(wal-fsync,12);stall(compute,8,400ms)", 42)
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: 5,
		IO:              sched,
		ApplyProbe:      order.probe,
	})
	cfg.Faults = sched
	cfg.ServeQueries = true
	cfg.DegradePolicy = core.DegradeReadOnly
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline:      cfg,
		MaxQueue:      8,
		PhaseDeadline: 100 * time.Millisecond,
		MaxRestarts:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	var accepted []int
	for i, s := range stream {
		err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels})
		if err == nil {
			accepted = append(accepted, i)
		} else if !errors.Is(err, core.ErrReadOnly) {
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
	order.check(t, accepted, sup.DurableSeq())
	// Oracle: the recovered state must equal the sequential replay of
	// exactly the WAL-acknowledged prefix — at least the 7 batches that
	// preceded the first disruption.
	coldVerify(t, cfg, stream, 7)
}
