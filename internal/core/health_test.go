package core_test

import (
	"errors"
	"sync"
	"testing"

	"sagabench/internal/core"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/telemetry"
)

func TestHealthMonotone(t *testing.T) {
	h := core.NewHealth(nil)
	if h.State() != core.Healthy {
		t.Fatalf("fresh machine in %v", h.State())
	}
	if !h.To(core.DegradedDurability, "wal enospc") {
		t.Fatal("first forward transition refused")
	}
	if h.To(core.DegradedDurability, "again") {
		t.Fatal("same-state transition fired twice")
	}
	if h.To(core.Healthy, "backward") {
		t.Fatal("backward transition fired")
	}
	if !h.To(core.ReadOnly, "checkpoint enospc") {
		t.Fatal("forward transition past degraded refused")
	}
	tr := h.Transitions()
	if len(tr) != 2 {
		t.Fatalf("recorded %d transitions, want 2: %+v", len(tr), tr)
	}
	if tr[0].From != core.Healthy || tr[0].To != core.DegradedDurability || tr[0].Cause != "wal enospc" {
		t.Fatalf("transition 0: %+v", tr[0])
	}
	if tr[1].From != core.DegradedDurability || tr[1].To != core.ReadOnly {
		t.Fatalf("transition 1: %+v", tr[1])
	}

	var nilH *core.Health
	if nilH.State() != core.Healthy || nilH.To(core.Failed, "x") {
		t.Fatal("nil Health must read healthy and absorb transitions")
	}
}

// TestHealthGaugeFollowsState races forward transitions — as the
// watchdog's To(Failed) may race the worker's durability fault — and
// checks that saga_health_state ends at State() and that every transition
// was counted once.
func TestHealthGaugeFollowsState(t *testing.T) {
	targets := []core.HealthState{core.DegradedDurability, core.ReadOnly, core.Failed}
	for trial := 0; trial < 500; trial++ {
		reg := telemetry.NewRegistry()
		h := core.NewHealth(telemetry.NewRecorder(reg, nil))
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range targets {
			// Rotate the launch order so each target is sometimes first.
			target := targets[(i+trial)%len(targets)]
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				h.To(target, "race")
			}()
		}
		start.Done()
		done.Wait()
		if got := reg.Gauge("saga_health_state", "").Value(); got != float64(h.State()) {
			t.Fatalf("trial %d: saga_health_state = %v, State() = %d", trial, got, h.State())
		}
		if got, want := reg.Counter("saga_health_transitions_total", "").Value(), uint64(len(h.Transitions())); got != want {
			t.Fatalf("trial %d: saga_health_transitions_total = %d, %d transitions", trial, got, want)
		}
	}
}

func TestHealthStateNames(t *testing.T) {
	want := map[core.HealthState]string{
		core.Healthy:            "healthy",
		core.DegradedDurability: "degraded-durability",
		core.ReadOnly:           "read-only",
		core.Failed:             "failed",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), name)
		}
	}
}

func TestDegradePolicyValidation(t *testing.T) {
	cfg := core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "pr",
		DegradePolicy: "explode",
	}
	if _, err := core.NewPipeline(cfg); err == nil {
		t.Fatal("unknown degrade policy accepted")
	}
}

// TestPermanentFaultTransitionsOnce drives each degrade policy through
// an injected permanent WAL fault (ENOSPC, non-retryable) and checks
// the health machine transitions to the policy's target state exactly
// once, with the documented per-policy batch outcome.
func TestPermanentFaultTransitionsOnce(t *testing.T) {
	cases := []struct {
		policy core.DegradePolicy
		want   core.HealthState
	}{
		{core.DegradeContinue, core.DegradedDurability},
		{core.DegradeReadOnly, core.ReadOnly},
		{core.DegradeFail, core.Failed},
	}
	for _, tc := range cases {
		t.Run(string(tc.policy), func(t *testing.T) {
			stream := durableStream(4)
			sched := fault.MustParseSchedule("enospc(wal-append,2)", 1)
			cfg := durableCfg(t.TempDir(), "pr", &durable.Config{
				Fsync:           durable.FsyncAlways,
				CheckpointEvery: -1,
				IO:              sched,
			})
			cfg.DegradePolicy = tc.policy
			p, err := core.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var errs []error
			for _, s := range stream {
				_, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels})
				errs = append(errs, err)
			}
			if errs[0] != nil {
				t.Fatalf("pre-fault batch failed: %v", errs[0])
			}
			h := p.Health()
			if h.State() != tc.want {
				t.Fatalf("health %v, want %v", h.State(), tc.want)
			}
			if tr := h.Transitions(); len(tr) != 1 || tr[0].To != tc.want {
				t.Fatalf("want exactly one transition to %v, got %+v", tc.want, tr)
			}
			switch tc.policy {
			case core.DegradeContinue:
				// Every batch applies (in memory after the fault); the WAL
				// froze at the last pre-fault sequence.
				for i, err := range errs {
					if err != nil {
						t.Fatalf("degrade policy surfaced batch %d error: %v", i, err)
					}
				}
				if p.DurableSeq() != 1 {
					t.Fatalf("degraded WAL advanced to %d, want frozen at 1", p.DurableSeq())
				}
			case core.DegradeReadOnly:
				for i, err := range errs[1:] {
					if !errors.Is(err, core.ErrReadOnly) {
						t.Fatalf("post-fault batch %d: %v, want ErrReadOnly", i+1, err)
					}
				}
			case core.DegradeFail:
				if errs[1] == nil || !durable.IsPermanent(errs[1]) {
					t.Fatalf("fail policy: batch 1 error %v, want permanent durability error", errs[1])
				}
				for i, err := range errs[2:] {
					if !errors.Is(err, core.ErrFailed) {
						t.Fatalf("post-failure batch %d: %v, want ErrFailed", i+2, err)
					}
				}
			}
			rep := p.HealthReport()
			if rep.State != tc.want || rep.Healthy() {
				t.Fatalf("report %+v inconsistent with health %v", rep, tc.want)
			}
			// Close must not resurrect the fault (the degraded path skips
			// flushing through the dead WAL).
			if err := p.Close(); err != nil && tc.policy == core.DegradeContinue {
				t.Fatalf("close after degrade: %v", err)
			}
		})
	}
}

// TestCheckpointFaultDegradesNotBatches checks a permanent checkpoint
// fault under the degrade policy suspends checkpointing only: batches
// keep logging and applying, and the final health is
// degraded-durability with the WAL intact.
func TestCheckpointFaultDegradesNotBatches(t *testing.T) {
	stream := durableStream(6)
	sched := fault.MustParseSchedule("enospc(ckpt-write,1)", 1)
	dir := t.TempDir()
	cfg := durableCfg(dir, "pr", &durable.Config{
		Fsync:           durable.FsyncAlways,
		CheckpointEvery: 2,
		IO:              sched,
	})
	cfg.DegradePolicy = core.DegradeContinue
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stream {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if p.Health().State() != core.DegradedDurability {
		t.Fatalf("health %v, want degraded-durability", p.Health().State())
	}
	if p.DurableSeq() != uint64(len(stream)) {
		t.Fatalf("WAL at %d, want %d (checkpoint fault must not stop logging)", p.DurableSeq(), len(stream))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL alone carries everything: a cold restart replays the full
	// stream even though every checkpoint attempt failed.
	cold := cfg
	cold.DegradePolicy = ""
	dcfg := *cfg.Durable
	dcfg.IO = nil
	dcfg.CheckpointEvery = -1
	cold.Durable = &dcfg
	verifyAgainstOracle(t, cold, streamOracle(stream, nil), uint64(len(stream)))
}
