package epoch

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sagabench/internal/graph"
)

// snap builds a minimal well-formed snapshot over a 4-vertex triangle
// plus an isolated vertex, with a property vector.
func snap(batch int) *Snapshot {
	csr := graph.BuildCSR(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 2, Dst: 0, Weight: 3},
	})
	return &Snapshot{
		Batch:    batch,
		CSR:      *csr,
		Values:   []float64{0, 1, 2, 3},
		Directed: true,
	}
}

func TestSnapshotAccessors(t *testing.T) {
	s := snap(0)
	if got := s.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := s.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	if got := s.OutDegree(0); got != 1 {
		t.Fatalf("OutDegree(0) = %d, want 1", got)
	}
	if got := s.InDegree(0); got != 1 {
		t.Fatalf("InDegree(0) = %d, want 1", got)
	}
	if got := s.OutDegree(3); got != 0 {
		t.Fatalf("OutDegree(3) = %d, want 0 (isolated)", got)
	}
	// Out-of-range vertices answer zero/nil, never panic.
	if got := s.OutDegree(99); got != 0 {
		t.Fatalf("OutDegree(99) = %d, want 0", got)
	}
	if run := s.Out(99); run != nil {
		t.Fatalf("Out(99) = %v, want nil", run)
	}
	if run := s.In(99); run != nil {
		t.Fatalf("In(99) = %v, want nil", run)
	}
	if w, ok := s.HasEdge(0, 1); !ok || w != 1 {
		t.Fatalf("HasEdge(0,1) = %v,%v, want 1,true", w, ok)
	}
	if _, ok := s.HasEdge(0, 2); ok {
		t.Fatal("HasEdge(0,2) = true, want false")
	}
	if v, ok := s.Value(2); !ok || v != 2 {
		t.Fatalf("Value(2) = %v,%v, want 2,true", v, ok)
	}
	if _, ok := s.Value(99); ok {
		t.Fatal("Value(99) = ok, want miss")
	}
}

func TestCheckConsistentNegative(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		want   string
	}{
		{"inverted run", func(s *Snapshot) { s.CSR.OutSpans[2].End = 0 }, "inverted"},
		{"adjacency cut short", func(s *Snapshot) { s.CSR.OutAdj = s.CSR.OutAdj[:2] }, "past the 2 records"},
		{"run past the records", func(s *Snapshot) { s.CSR.OutSpans[2].End = 9 }, "past the 3 records"},
		{"neighbor outside space", func(s *Snapshot) { s.CSR.OutAdj[0].ID = 99 }, "outside space"},
		{"out records vs edge count", func(s *Snapshot) { s.CSR.Edges = 4 }, "out runs hold 3 records"},
		{"in records vs edge count", func(s *Snapshot) { s.CSR.InSpans[2].End = 2 }, "in runs hold 2 records"},
		{"in index wrong length", func(s *Snapshot) { s.CSR.InSpans = s.CSR.InSpans[:3] }, "in index covers 3 vertices"},
		{"values wrong length", func(s *Snapshot) { s.Values = s.Values[:2] }, "property values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := snap(0)
			if err := s.CheckConsistent(); err != nil {
				t.Fatalf("baseline inconsistent: %v", err)
			}
			tc.mutate(s)
			err := s.CheckConsistent()
			if err == nil {
				t.Fatal("mutated snapshot passes CheckConsistent")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := snap(0).Fingerprint()
	if again := snap(0).Fingerprint(); again != base {
		t.Fatalf("fingerprint not deterministic: %#x vs %#x", base, again)
	}
	mutations := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"neighbor id", func(s *Snapshot) { s.CSR.OutAdj[0].ID = 2 }},
		{"edge weight", func(s *Snapshot) { s.CSR.OutAdj[0].Weight = 7 }},
		{"run boundary", func(s *Snapshot) { s.CSR.OutSpans[1].Begin = 0 }},
		{"property value", func(s *Snapshot) { s.Values[3] = -1 }},
		{"in record", func(s *Snapshot) { s.CSR.InAdj[0].ID = 3 }},
	}
	for _, m := range mutations {
		s := snap(0)
		m.mutate(s)
		if s.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged after mutation", m.name)
		}
	}
}

// TestLogStructuredLayout checks that a snapshot whose runs are scattered
// over an arena with dead space — what the compute view publishes between
// compactions — passes CheckConsistent, answers like the contiguous build
// of the same graph, and fingerprints the same.
func TestLogStructuredLayout(t *testing.T) {
	want := snap(0)
	s := snap(0)
	// Vertex 1's run {2} relocated to the tail; its old slot is dead.
	s.CSR.OutAdj = append(append([]graph.Neighbor(nil), s.CSR.OutAdj...), s.CSR.OutAdj[1])
	s.CSR.OutSpans = []graph.Span{{Begin: 0, End: 1}, {Begin: 3, End: 4}, {Begin: 2, End: 3}, {Begin: 4, End: 4}}
	if err := s.CheckConsistent(); err != nil {
		t.Fatalf("log-structured snapshot inconsistent: %v", err)
	}
	if got := s.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3 (dead records do not count)", got)
	}
	if w, ok := s.HasEdge(1, 2); !ok || w != 2 {
		t.Fatalf("HasEdge(1,2) = %v,%v, want 2,true", w, ok)
	}
	if got, w := s.Fingerprint(), want.Fingerprint(); got != w {
		t.Fatalf("fingerprint depends on the layout: %#x vs %#x", got, w)
	}
}

func TestPublishPinRelease(t *testing.T) {
	m := NewManager(false)
	if s := m.Pin(); s != nil {
		t.Fatal("Pin before first publish returned a snapshot")
	}
	if e := m.LatestEpoch(); e != 0 {
		t.Fatalf("LatestEpoch before publish = %d, want 0", e)
	}

	s1 := snap(0)
	if e := m.Publish(s1); e != 1 {
		t.Fatalf("first publish epoch = %d, want 1", e)
	}
	h := m.Pin()
	if h != s1 {
		t.Fatal("Pin did not return the latest snapshot")
	}
	if st := m.Stats(); st.Pins != 1 || st.Published != 1 {
		t.Fatalf("stats after pin = %+v", st)
	}

	s2 := snap(1)
	if e := m.Publish(s2); e != 2 {
		t.Fatalf("second publish epoch = %d, want 2", e)
	}
	// The superseded snapshot stays readable through the old handle.
	if h.Epoch != 1 || h.NumNodes() != 4 {
		t.Fatal("pinned superseded snapshot corrupted")
	}
	if got := m.Pin(); got != s2 {
		t.Fatal("Pin after second publish did not return s2")
	}
	m.Release(s2)
	m.Release(h)
	if st := m.Stats(); st.Pins != 0 {
		t.Fatalf("pins after release = %d, want 0", st.Pins)
	}
	if e := m.LatestEpoch(); e != 2 {
		t.Fatalf("LatestEpoch = %d, want 2", e)
	}
}

func TestReleaseNilIsNoop(t *testing.T) {
	m := NewManager(false)
	m.Release(nil)
	if st := m.Stats(); st.Pins != 0 {
		t.Fatalf("pins after nil release = %d", st.Pins)
	}
}

func TestReclaimSpareZeroReaderFastPath(t *testing.T) {
	m := NewManager(true)
	m.Publish(snap(0))
	// No spare yet: the first publication supersedes nothing.
	if m.ReclaimSpare() {
		t.Fatal("ReclaimSpare with no spare owner asked for a drop")
	}
	m.Publish(snap(1))
	// s1 is the spare owner and nobody pinned it: reuse.
	if m.ReclaimSpare() {
		t.Fatal("ReclaimSpare with drained owner asked for a drop")
	}
	st := m.Stats()
	if st.Reclaimed != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 reclaimed, 0 dropped", st)
	}
	// The gate is consumed: asking again without a publish is a no-op.
	if m.ReclaimSpare() {
		t.Fatal("second ReclaimSpare asked for a drop")
	}
	if st := m.Stats(); st.Reclaimed != 1 {
		t.Fatalf("second ReclaimSpare recounted: %+v", st)
	}
}

func TestReclaimSparePinnedOwnerMustDrop(t *testing.T) {
	m := NewManager(true)
	s1 := snap(0)
	m.Publish(s1)
	h := m.Pin()
	m.Publish(snap(1))
	// s1 is the spare owner and still pinned: the writer must abandon
	// the buffers.
	if !m.ReclaimSpare() {
		t.Fatal("ReclaimSpare with pinned owner allowed reuse")
	}
	st := m.Stats()
	if st.Dropped != 1 || st.Reclaimed != 0 {
		t.Fatalf("stats = %+v, want 1 dropped, 0 reclaimed", st)
	}
	// The late release happens after the drop decision: the snapshot is
	// still intact.
	if err := h.CheckConsistent(); err != nil {
		t.Fatalf("dropped-but-pinned snapshot inconsistent: %v", err)
	}
	m.Release(h)
	if st := m.Stats(); st.Pins != 0 {
		t.Fatalf("pins = %d after late release", st.Pins)
	}
}

func TestForgetSpare(t *testing.T) {
	m := NewManager(true)
	m.Publish(snap(0))
	m.Publish(snap(1))
	m.ForgetSpare()
	if m.ReclaimSpare() {
		t.Fatal("ReclaimSpare after ForgetSpare asked for a drop")
	}
	if st := m.Stats(); st.Reclaimed != 0 && st.Dropped != 0 {
		t.Fatalf("forgotten spare still counted: %+v", st)
	}
}

func TestNoReuseManagerTracksNoSpare(t *testing.T) {
	m := NewManager(false)
	m.Publish(snap(0))
	m.Publish(snap(1))
	if m.ReclaimSpare() {
		t.Fatal("non-reusing manager asked for a drop")
	}
	if st := m.Stats(); st.Reclaimed != 0 || st.Dropped != 0 {
		t.Fatalf("non-reusing manager counted buffers: %+v", st)
	}
}

func TestCloseStopsHandout(t *testing.T) {
	m := NewManager(false)
	m.Publish(snap(0))
	h := m.Pin()
	m.Close()
	if s := m.Pin(); s != nil {
		t.Fatal("Pin after Close returned a snapshot")
	}
	// The outstanding handle stays readable after Close.
	if err := h.CheckConsistent(); err != nil {
		t.Fatalf("pinned snapshot broken by Close: %v", err)
	}
	if _, ok := h.HasEdge(0, 1); !ok {
		t.Fatal("pinned snapshot lost edges after Close")
	}
	m.Release(h)
	// LatestEpoch falls back to the publication counter when latest is nil.
	if e := m.LatestEpoch(); e != 1 {
		t.Fatalf("LatestEpoch after Close = %d, want 1", e)
	}
}

// TestPinValidationUnderChurn hammers Pin/Release from many goroutines
// while the writer publishes continuously, asserting handles are always
// well-formed and refcounts drain to zero. Run with -race this is the
// package-local half of the concurrency battery.
func TestPinValidationUnderChurn(t *testing.T) {
	m := NewManager(true)
	const (
		readers  = 8
		pinsEach = 400
		epochs   = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < pinsEach; n++ {
				h := m.Pin()
				if h == nil {
					continue
				}
				if h.NumNodes() != 4 {
					errs <- fmt.Errorf("pinned snapshot with %d nodes", h.NumNodes())
					m.Release(h)
					return
				}
				if h.Epoch == 0 {
					errs <- fmt.Errorf("pinned snapshot without epoch")
					m.Release(h)
					return
				}
				m.Release(h)
			}
		}()
	}
	for e := 0; e < epochs; e++ {
		m.Publish(snap(e))
		m.ReclaimSpare()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := m.Stats(); st.Pins != 0 {
		t.Fatalf("refcounts did not drain: %d pins outstanding", st.Pins)
	}
}
