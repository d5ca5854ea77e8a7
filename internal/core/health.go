package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sagabench/internal/telemetry"
)

// The health state machine makes the pipeline's failure handling
// explicit: instead of dying on the first durability fault, the runtime
// moves monotonically through
//
//	healthy → degraded-durability → read-only → failed
//
// and every layer checks the current state before acting. Degraded
// durability means the WAL or checkpoint writer gave up (post-retry) and
// the pipeline now applies batches in memory only; read-only means
// ingest is refused but queries keep serving from the last published
// epoch snapshot; failed means nothing is served. Transitions only move
// forward — a disk does not un-fill itself mid-run, and monotonicity is
// what makes "transitions exactly once" testable and the exit-code
// mapping stable.

// HealthState is one state of the pipeline health machine, ordered by
// severity.
type HealthState int

// The health states, in degradation order.
const (
	// Healthy: full service — durable ingest and queries.
	Healthy HealthState = iota
	// DegradedDurability: the WAL and/or checkpoint writer failed
	// permanently (or exhausted its retry budget); batches keep applying
	// in memory but are no longer durable.
	DegradedDurability
	// ReadOnly: ingest is refused; queries keep serving from the last
	// published epoch snapshot.
	ReadOnly
	// Failed: the pipeline is dead — ingest refused, no guarantees about
	// queries.
	Failed
)

var healthNames = [...]string{"healthy", "degraded-durability", "read-only", "failed"}

func (s HealthState) String() string {
	if s < 0 || int(s) >= len(healthNames) {
		return fmt.Sprintf("health(%d)", int(s))
	}
	return healthNames[s]
}

// MarshalJSON renders the state by name in health reports.
func (s HealthState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// DegradePolicy selects what a permanent (or retry-exhausted) durability
// fault does to the pipeline.
type DegradePolicy string

// The degrade policies.
const (
	// DegradeContinue moves to degraded-durability: keep applying batches
	// in memory, stop writing the WAL/checkpoints.
	DegradeContinue DegradePolicy = "degrade"
	// DegradeReadOnly moves straight to read-only: refuse ingest, keep
	// serving queries from the last published epoch.
	DegradeReadOnly DegradePolicy = "read-only"
	// DegradeFail preserves the pre-supervision behavior: the durability
	// error surfaces to the caller and the pipeline is failed.
	DegradeFail DegradePolicy = "fail"
)

func (d DegradePolicy) validate() error {
	switch d {
	case "", DegradeContinue, DegradeReadOnly, DegradeFail:
		return nil
	}
	return fmt.Errorf("core: unknown degrade policy %q (have %q, %q, %q)",
		d, DegradeContinue, DegradeReadOnly, DegradeFail)
}

// target is the health state the policy degrades to on a durability
// fault. The zero policy fails — exactly what the pipeline did before
// supervision existed, so nothing changes for configs that never opt in.
func (d DegradePolicy) target() HealthState {
	switch d {
	case DegradeContinue:
		return DegradedDurability
	case DegradeReadOnly:
		return ReadOnly
	}
	return Failed
}

// ErrReadOnly is returned for ingest offered to a read-only pipeline.
// Queries still work; the batch was not applied.
var ErrReadOnly = errors.New("core: pipeline is read-only (degraded); ingest refused, queries still served")

// ErrFailed is returned for ingest offered to a failed pipeline.
var ErrFailed = errors.New("core: pipeline has failed; ingest refused")

// HealthTransition records one state change for the health report.
type HealthTransition struct {
	From  HealthState `json:"from"`
	To    HealthState `json:"to"`
	Cause string      `json:"cause"`
	At    time.Time   `json:"at"`
}

// Health is the shared health state machine. One Health outlives every
// pipeline rebuild the supervisor performs, so degradations survive
// restarts; it is safe for concurrent use (the watchdog, the worker, and
// report readers all touch it).
type Health struct {
	rec *telemetry.Recorder

	state atomic.Int32

	mu          sync.Mutex
	transitions []HealthTransition

	// Counters the health report aggregates (written by the supervisor
	// and the degrade paths).
	watchdogFires atomic.Uint64
	restarts      atomic.Uint64
	shed          atomic.Uint64
	refused       atomic.Uint64
}

// NewHealth builds a healthy machine. rec may be nil.
func NewHealth(rec *telemetry.Recorder) *Health {
	return &Health{rec: rec}
}

// State is the current health state.
func (h *Health) State() HealthState {
	if h == nil {
		return Healthy
	}
	return HealthState(h.state.Load())
}

// To transitions forward to state, recording the cause. Backward and
// same-state calls are no-ops returning false — the machine is monotone,
// so each state is entered at most once and repeated faults in a state
// already reached change nothing.
func (h *Health) To(state HealthState, cause string) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	from := HealthState(h.state.Load())
	if state <= from {
		h.mu.Unlock()
		return false
	}
	h.state.Store(int32(state))
	h.transitions = append(h.transitions, HealthTransition{From: from, To: state, Cause: cause, At: time.Now()})
	// Under the lock, so racing transitions reach the gauge in state's order.
	h.rec.RecordHealthState(int(state))
	h.mu.Unlock()
	return true
}

// refuse gates ingest: a read-only machine refuses the batch (queries keep
// being served), a failed one refuses everything, and both count it.
// Healthy and degraded-durability machines ingest normally.
func (h *Health) refuse() error {
	st := h.State()
	if st < ReadOnly {
		return nil
	}
	h.NoteRefused()
	if st >= Failed {
		return ErrFailed
	}
	return ErrReadOnly
}

// Transitions returns a copy of the recorded transitions in order.
func (h *Health) Transitions() []HealthTransition {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HealthTransition(nil), h.transitions...)
}

// NoteWatchdogFire counts a phase deadline expiration.
func (h *Health) NoteWatchdogFire() {
	if h == nil {
		return
	}
	h.watchdogFires.Add(1)
	h.rec.RecordWatchdogFire()
}

// NoteRestart counts a supervised pipeline rebuild.
func (h *Health) NoteRestart() {
	if h == nil {
		return
	}
	h.restarts.Add(1)
	h.rec.RecordPhaseRestart()
}

// NoteShed counts a batch dropped by the shed policy.
func (h *Health) NoteShed() {
	if h == nil {
		return
	}
	h.shed.Add(1)
	h.rec.RecordShedBatch()
}

// NoteRefused counts a batch refused in read-only/failed state.
func (h *Health) NoteRefused() {
	if h == nil {
		return
	}
	h.refused.Add(1)
	h.rec.RecordRefusedIngest()
}

// HealthReport is the structured exit report: the final state, what the
// run survived, and what it lost. Drivers serialize it as JSON and exit
// non-zero for any final state other than healthy.
type HealthReport struct {
	State         HealthState        `json:"state"`
	Transitions   []HealthTransition `json:"transitions,omitempty"`
	DurableRetry  uint64             `json:"durable_retries"`
	WatchdogFires uint64             `json:"watchdog_fires"`
	Restarts      uint64             `json:"restarts"`
	ShedBatches   uint64             `json:"shed_batches"`
	Refused       uint64             `json:"refused_batches"`
	Quarantined   []string           `json:"quarantined,omitempty"`
	Injections    []string           `json:"injections,omitempty"`
}

// Healthy reports whether the run ended with nothing degraded and
// nothing lost — the exit-zero condition.
func (r HealthReport) Healthy() bool {
	return r.State == Healthy && len(r.Quarantined) == 0
}

// report assembles the counter half of the report (state, transitions,
// supervisor counters); callers stamp in the per-pipeline fields
// (retries, quarantined, injections).
func (h *Health) report() HealthReport {
	if h == nil {
		return HealthReport{}
	}
	return HealthReport{
		State:         h.State(),
		Transitions:   h.Transitions(),
		WatchdogFires: h.watchdogFires.Load(),
		Restarts:      h.restarts.Load(),
		ShedBatches:   h.shed.Load(),
		Refused:       h.refused.Load(),
	}
}
