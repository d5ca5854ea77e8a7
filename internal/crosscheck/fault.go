package crosscheck

import "sagabench/internal/graph"

// Deliberate fault injection: the differentials' own self-test plants a
// known defect and asserts the differential run catches it and shrinks the
// failing stream to a minimal repro. The faults mimic real
// concurrent-structure bugs: a swallowed insert, an off-by-one capacity
// boundary that silently drops the edge that would not fit, and a
// re-insert path that forgets to overwrite the weight. A fault is a
// transform of the stream the structure under test ingests; the oracle
// ingests the original, so the defect surfaces as a divergence.

// Fault selects a defect for FaultSpec.Apply.
type Fault string

// The supported defects.
const (
	// FaultDropEdge silently ignores inserts of one specific (src, dst)
	// pair — a lost update.
	FaultDropEdge Fault = "drop-edge"
	// FaultDegreeCap drops inserts that would grow a vertex's out-degree
	// past K — the classic off-by-one at a block/bucket capacity
	// boundary (an edge that should land in slot K never lands).
	FaultDegreeCap Fault = "degree-cap"
	// FaultStaleWeight ignores the new weight when re-inserting an
	// existing edge — the overwrite path silently degrades to a no-op.
	FaultStaleWeight Fault = "stale-weight"
)

// FaultSpec parameterizes a fault.
type FaultSpec struct {
	Fault Fault
	// Src/Dst select the pair for FaultDropEdge.
	Src, Dst graph.NodeID
	// Cap is the degree boundary for FaultDegreeCap (default 16).
	Cap int
}

// Apply returns the stream a structure with the defect would end up
// having ingested: each add is judged, in stream order, against a shadow
// oracle of the faulted stream so far (the degree and presence a faulty
// structure would consult live), and kept adds land in the shadow before
// the next is judged. Deletions pass through unchanged. A nil spec plants
// nothing and returns stream itself.
func (f *FaultSpec) Apply(stream Stream, directed bool) Stream {
	if f == nil {
		return stream
	}
	capacity := f.Cap
	if capacity <= 0 {
		capacity = 16
	}
	shadow := graph.NewOracle(directed)
	has := func(src, dst graph.NodeID) bool {
		for _, nb := range shadow.Out(src) {
			if nb.ID == dst {
				return true
			}
		}
		return false
	}
	out := make(Stream, len(stream))
	for i, st := range stream {
		kept := make(graph.Batch, 0, len(st.Adds))
		for _, e := range st.Adds {
			switch f.Fault {
			case FaultDropEdge:
				if e.Src == f.Src && e.Dst == f.Dst {
					continue
				}
			case FaultDegreeCap:
				// Once a source is at the cap, new distinct neighbors are
				// dropped (overwrites of existing neighbors still pass).
				if shadow.OutDegree(e.Src) >= capacity && !has(e.Src, e.Dst) {
					continue
				}
			case FaultStaleWeight:
				if has(e.Src, e.Dst) {
					continue // drop the overwrite: weight stays stale
				}
			}
			kept = append(kept, e)
			shadow.Update(graph.Batch{e})
		}
		shadow.Delete(st.Dels)
		out[i] = Step{Adds: kept, Dels: st.Dels}
	}
	return out
}
