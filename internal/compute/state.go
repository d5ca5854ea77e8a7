package compute

import "sagabench/internal/graph"

// State is the cross-batch memory of an engine, exported for checkpointing
// and restored on crash recovery. For the INC model this is the whole
// processing-amortization contract: vertex values persist across batches,
// so a recovered engine must resume from the checkpointed values (plus the
// vertex count they were computed at and any deletion-invalidated cone
// still awaiting recomputation), not from scratch. The FS model recomputes
// everything per batch; its state is the last property array only, kept so
// a recovered pipeline reports the same values before the next batch runs.
type State struct {
	// Values is the vertex property array at checkpoint time.
	Values []float64
	// LastN is the vertex count of the previous compute phase (INC only;
	// globalN algorithms use it to detect |V| growth).
	LastN int
	// Pending is the deletion-invalidated cone awaiting the next compute
	// phase (INC only).
	Pending []graph.NodeID
}

// Stateful is implemented by engines whose cross-batch state can be
// exported and restored. Both built-in models implement it.
type Stateful interface {
	// ExportState snapshots the engine's cross-batch state.
	ExportState() State
	// RestoreState replaces the engine's state with a snapshot previously
	// taken by ExportState on an engine of the same spec.
	RestoreState(State)
}

// ExportState implements Stateful.
func (e *incEngine) ExportState() State {
	s := State{
		Values: append([]float64(nil), e.vals.materialize(nil)...),
		LastN:  e.lastN,
	}
	if len(e.pendingInvalid) > 0 {
		s.Pending = append([]graph.NodeID(nil), e.pendingInvalid...)
	}
	return s
}

// RestoreState implements Stateful.
func (e *incEngine) RestoreState(s State) {
	e.restore(s.Values)
	e.contrib = e.contrib[:0] // derived from vals; the next phase rebuilds it in full
	e.lastN = s.LastN
	e.pendingInvalid = append(e.pendingInvalid[:0], s.Pending...)
}

// ExportState implements Stateful.
func (e *fsEngine) ExportState() State {
	return State{Values: append([]float64(nil), e.vals.materialize(nil)...)}
}

// RestoreState implements Stateful. FS recomputes from scratch every
// batch, so only the reported property array needs to carry over.
func (e *fsEngine) RestoreState(s State) { e.restore(s.Values) }

// restore replaces the property array and drops a failed phase's stats.
// No vector of an earlier phase can be brought up to date from the
// changed-vertex record any more.
func (r *rounds) restore(vs []float64) {
	r.vals = r.vals[:0]
	for i, f := range vs {
		r.vals = append(r.vals, 0)
		r.vals.put(i, f)
	}
	r.stats = Stats{}
	r.oldest = r.gen + 1
}
