// Package epoch implements the snapshot-publication protocol behind
// SAGA-Bench's non-blocking queries: after each update phase the writer
// publishes an immutable CSR snapshot of the graph (plus the algorithm's
// property vector) behind an atomically swapped epoch pointer; readers pin
// the latest epoch with a refcount, read without any lock, and release.
//
// Progress guarantees (the vocabulary of the wait-free concurrent-graph
// line of work — Peri et al.):
//
//   - Readers never block the writer: Pin/Release are a handful of atomic
//     operations; no reader-side mutex exists for the writer to wait on.
//     A slow or stuck reader only delays buffer reuse, never publication.
//   - The writer never frees (or reuses) memory under a reader: an
//     adjacency arena several snapshots reach is only ever written past
//     its tail, and what the writer does reuse — the mirror's
//     double-buffered index, an arena a superseded snapshot alone
//     reaches, and that snapshot's property vector — it reuses only after
//     the snapshot's refcount has drained (ReclaimSpare); if readers
//     still hold it, the writer abandons those buffers to the garbage
//     collector and allocates fresh ones — retirement is deferred, not
//     blocking.
//   - Readers are lock-free: Pin retries only when a publication lands
//     between its load and its validation, which bounds retries by writer
//     progress, not by other readers.
//
// The package is deliberately small and dependency-free (graph only): the
// core pipeline wires it into batch processing and is its one writer; the
// read-during-update differential (internal/crashloop) checks it through
// that pipeline's AcquireQuery.
package epoch

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sagabench/internal/graph"
)

// Snapshot is one published epoch: an immutable CSR of the graph as of
// one batch boundary, plus the algorithm's property vector at that batch.
// All exported fields are read-only after Publish; the arrays must never
// be mutated by readers or re-published.
//
// saga:frozen
type Snapshot struct {
	// Epoch is the publication sequence number (1-based; assigned by
	// Publish).
	Epoch uint64
	// Batch is the 0-based index of the batch whose application this
	// snapshot reflects.
	Batch int
	// Wall is the publication wall time, stamped by the caller (the
	// deterministic crosscheck harness leaves it zero).
	Wall time.Time
	// CSR is the adjacency snapshot. For undirected graphs the in arrays
	// alias the out arrays.
	CSR graph.CSR
	// Values is the algorithm's vertex property vector at this batch
	// (may be empty when the publisher runs no compute phase).
	Values []float64
	// Directed reports the stream's directedness.
	Directed bool

	// refs counts pinned readers. It can only grow while the snapshot is
	// the latest epoch; once superseded it drains monotonically, which is
	// what makes ReclaimSpare's refs==0 check stable. Publish allocates it,
	// apart from the snapshot, so that the manager can watch a superseded
	// snapshot drain without keeping its arrays reachable: after a
	// compaction the superseded snapshot is the last holder of the old
	// adjacency arena.
	refs *atomic.Int64
}

// NumNodes reports the snapshot's vertex count.
func (s *Snapshot) NumNodes() int { return s.CSR.NumNodes() }

// NumEdges reports the snapshot's directed edge count.
func (s *Snapshot) NumEdges() int { return s.CSR.NumEdges() }

// OutDegree reports v's out-degree (0 beyond the vertex space).
func (s *Snapshot) OutDegree(v graph.NodeID) int {
	if int(v) >= s.NumNodes() {
		return 0
	}
	return s.CSR.OutDegree(v)
}

// InDegree reports v's in-degree (0 beyond the vertex space).
func (s *Snapshot) InDegree(v graph.NodeID) int {
	if int(v) >= s.NumNodes() {
		return 0
	}
	return s.CSR.InDegree(v)
}

// Out returns v's out-adjacency run (nil beyond the vertex space). The
// run aliases the snapshot and must not be mutated or held past Release.
func (s *Snapshot) Out(v graph.NodeID) []graph.Neighbor {
	if int(v) >= s.NumNodes() {
		return nil
	}
	return s.CSR.Out(v)
}

// In returns v's in-adjacency run (nil beyond the vertex space).
func (s *Snapshot) In(v graph.NodeID) []graph.Neighbor {
	if int(v) >= s.NumNodes() {
		return nil
	}
	return s.CSR.In(v)
}

// HasEdge scans v's out-run for dst, returning the stored weight.
func (s *Snapshot) HasEdge(src, dst graph.NodeID) (graph.Weight, bool) {
	for _, nb := range s.Out(src) {
		if nb.ID == dst {
			return nb.Weight, true
		}
	}
	return 0, false
}

// Value returns v's algorithm property value at this epoch.
func (s *Snapshot) Value(v graph.NodeID) (float64, bool) {
	if int(v) >= len(s.Values) {
		return 0, false
	}
	return s.Values[v], true
}

// CheckConsistent verifies the snapshot's structural invariants: an index
// that covers the vertex space; every run inside its adjacency array with
// begin <= end; runs that together hold exactly the edge count the
// snapshot reports, in both directions; neighbor IDs inside the vertex
// space; a property vector sized to the vertex space (or absent). Runs may
// sit anywhere in the array (see graph.CSR), so dead records between them
// are not an error. A torn or scribbled publication breaks at least one of
// these. O(V+E) — meant for tests and the differential harness, not the
// query hot path.
func (s *Snapshot) CheckConsistent() error {
	n := s.NumNodes()
	if err := checkDir("out", n, s.CSR.Edges, s.CSR.OutSpans, s.CSR.OutAdj); err != nil {
		return fmt.Errorf("epoch %d: %w", s.Epoch, err)
	}
	if s.CSR.HasIn() {
		if err := checkDir("in", n, s.CSR.Edges, s.CSR.InSpans, s.CSR.InAdj); err != nil {
			return fmt.Errorf("epoch %d: %w", s.Epoch, err)
		}
	}
	if len(s.Values) != 0 && len(s.Values) != n {
		return fmt.Errorf("epoch %d: %d property values for %d vertices", s.Epoch, len(s.Values), n)
	}
	return nil
}

func checkDir(dir string, n, edges int, spans []graph.Span, adj []graph.Neighbor) error {
	if len(spans) != n {
		return fmt.Errorf("%s index covers %d vertices, want %d", dir, len(spans), n)
	}
	records := 0
	for v, sp := range spans {
		if sp.End < sp.Begin {
			return fmt.Errorf("%s run of vertex %d is inverted (%d -> %d)", dir, v, sp.Begin, sp.End)
		}
		if int(sp.End) > len(adj) {
			return fmt.Errorf("%s run of vertex %d ends at %d, past the %d records held", dir, v, sp.End, len(adj))
		}
		for _, nb := range adj[sp.Begin:sp.End] {
			if int(nb.ID) >= n {
				return fmt.Errorf("%s run of vertex %d names vertex %d outside space of %d", dir, v, nb.ID, n)
			}
		}
		records += sp.Len()
	}
	if records != edges {
		return fmt.Errorf("%s runs hold %d records, snapshot reports %d edges", dir, records, edges)
	}
	return nil
}

// Fingerprint hashes the snapshot's topology and values (FNV-1a over each
// vertex's degree and run, then the property vector). It reads runs, not
// offsets, so it is independent of where the layout put them: a relocated,
// a compacted and a freshly built mirror of one graph fingerprint alike. A
// pinned epoch's fingerprint must never change — the race battery
// computes it at pin time and again after the writer has advanced, so any
// scribble on a held snapshot is caught even if the structural invariants
// still hold.
func (s *Snapshot) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	n := s.NumNodes()
	for v := 0; v < n; v++ {
		run := s.CSR.Out(graph.NodeID(v))
		mix(uint64(len(run)))
		for _, nb := range run {
			mix(uint64(nb.ID))
			mix(uint64(math.Float32bits(float32(nb.Weight))))
		}
	}
	// The undirected mirror aliases in onto out; hashing the alias twice
	// is harmless and keeps the code branch-free for the directed case.
	for v := 0; v < n && s.CSR.HasIn(); v++ {
		run := s.CSR.In(graph.NodeID(v))
		mix(uint64(len(run)))
		for _, nb := range run {
			mix(uint64(nb.ID))
		}
	}
	for _, v := range s.Values {
		mix(math.Float64bits(v))
	}
	return h
}

// Stats is a monotone snapshot of the manager's counters.
type Stats struct {
	// Published counts snapshots published.
	Published uint64
	// Reclaimed counts superseded snapshots whose buffers drained and
	// were handed back to the writer's double buffer (the zero-reader
	// fast path).
	Reclaimed uint64
	// Dropped counts superseded snapshots that were still pinned when
	// the writer needed their buffers; their arrays were abandoned to the
	// GC and the writer allocated fresh ones.
	Dropped uint64
	// Pins is the current number of outstanding pinned handles.
	Pins int64
}

// Manager publishes snapshots and coordinates reader pins with writer
// buffer reuse. Publish/ReclaimSpare/ForgetSpare/Close are writer-side:
// they must be called from one goroutine (the pipeline's batch loop).
// Pin/Release are safe from any number of concurrent readers.
type Manager struct {
	latest atomic.Pointer[Snapshot]

	pins      atomic.Int64
	published atomic.Uint64
	reclaimed atomic.Uint64
	dropped   atomic.Uint64

	// reuse declares that published snapshots carry buffers the writer
	// wants back (the compute-view mirror's index double buffer and the
	// property vectors). Without it every publication carries fresh arrays
	// and spare tracking is off.
	reuse bool
	// spareRefs is the pin count of the snapshot whose buffers currently
	// are the writer's spares — the epoch superseded by the latest
	// publish; nil when there is none. Writer-side only.
	spareRefs *atomic.Int64
}

// NewManager builds a manager. reuseBuffers declares that the writer
// double-buffers what it publishes and will ask ReclaimSpare before each
// refresh; publishers of freshly allocated arrays pass false.
func NewManager(reuseBuffers bool) *Manager {
	return &Manager{reuse: reuseBuffers}
}

// Publish makes s the latest epoch. The previously latest snapshot is
// superseded: no new pins can land on it, so its refcount only drains
// from here on. Returns the assigned epoch number.
func (m *Manager) Publish(s *Snapshot) uint64 {
	s.Epoch = m.published.Add(1) // saga:allow frozenwrite -- the epoch number is stamped exactly once, before the swap makes s visible to readers
	s.refs = new(atomic.Int64)   // saga:allow frozenwrite -- the pin counter is attached exactly once, before the swap makes s visible to readers
	prev := m.latest.Swap(s)
	if m.reuse && prev != nil {
		// prev's buffers are now the writer's spares (the double buffer
		// swapped during the refresh that produced s); remember its pin
		// count so ReclaimSpare can gate the next refresh.
		m.spareRefs = prev.refs
	}
	return s.Epoch
}

// ReclaimSpare is the writer's pre-refresh gate: it reports whether the
// spare buffers (owned by the snapshot superseded two publications ago)
// may be scribbled. A false return means the owner has drained — reuse
// freely. A true return means readers still pin the owner: the caller
// MUST abandon the spare buffers (ds.ComputeView.DropSpares, and its
// spare property vector) so the next refresh and publish allocate fresh
// ones; the pinned snapshot stays intact and is garbage-collected when
// its readers release.
func (m *Manager) ReclaimSpare() (mustDrop bool) {
	refs := m.spareRefs
	if refs == nil {
		return false
	}
	m.spareRefs = nil
	// The owner is superseded (Publish swapped it out), so refs can only
	// drain: a reader that loads it stale will fail Pin's validation and
	// never read through it. Observing 0 here is therefore stable.
	if refs.Load() == 0 {
		m.reclaimed.Add(1)
		return false
	}
	m.dropped.Add(1)
	return true
}

// ForgetSpare drops spare tracking without reclaiming — for writers that
// discard their double buffer wholesale (durable recovery rebuilds the
// mirror from scratch).
func (m *Manager) ForgetSpare() { m.spareRefs = nil }

// Pin acquires the latest snapshot for reading, or nil when nothing has
// been published (or the manager is closed). The caller must Release it.
//
// The load→increment→validate dance closes the race with a concurrent
// publication: if the snapshot was superseded between the load and the
// increment, the validation load (sequentially consistent, so ordered
// after the publisher's swap) observes the newer epoch and the pin is
// retried — the transient refcount bump on the superseded snapshot is
// harmless because this reader never dereferences it.
//
// saga:pin
func (m *Manager) Pin() *Snapshot {
	for {
		s := m.latest.Load()
		if s == nil {
			return nil
		}
		s.refs.Add(1)
		if m.latest.Load() == s {
			m.pins.Add(1)
			return s
		}
		s.refs.Add(-1)
	}
}

// Release returns a pinned snapshot. Must be called exactly once per
// successful Pin.
//
// saga:pinrelease
func (m *Manager) Release(s *Snapshot) {
	if s == nil {
		return
	}
	s.refs.Add(-1)
	m.pins.Add(-1)
}

// LatestEpoch reports the epoch number of the latest publication (0
// before the first). Readers use it to measure the staleness of a pinned
// handle in batches.
func (m *Manager) LatestEpoch() uint64 {
	if s := m.latest.Load(); s != nil {
		return s.Epoch
	}
	return m.published.Load()
}

// Close stops publication hand-out: subsequent Pins return nil. Handles
// already pinned stay valid — their snapshots are immutable and outlive
// the manager — so a late-releasing reader never observes freed memory.
func (m *Manager) Close() {
	m.latest.Store(nil)
	m.spareRefs = nil
}

// Stats reads the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Published: m.published.Load(),
		Reclaimed: m.reclaimed.Load(),
		Dropped:   m.dropped.Load(),
		Pins:      m.pins.Load(),
	}
}
