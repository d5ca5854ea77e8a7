package hybrid

import (
	"math/rand"
	"testing"

	"sagabench/internal/graph"
)

// indexHarness drives a dstIndex and a map through the same operations.
// Each operation is three bytes — kind, then a 16-bit key folded into a
// space small enough that keys collide, repeat and force growth — so a
// property test and the fuzzer share it.
type indexHarness struct {
	t      *testing.T
	idx    *dstIndex
	oracle map[graph.NodeID]int32
	seen   map[graph.NodeID]bool // check's scratch
	probes uint64
	step   int
}

func runIndexOps(t *testing.T, data []byte) {
	t.Helper()
	h := &indexHarness{t: t, idx: newDstIndex(0), oracle: map[graph.NodeID]int32{}, seen: map[graph.NodeID]bool{}}
	for ; len(data) >= 3; data, h.step = data[3:], h.step+1 {
		kind, key := data[0], int(data[1])|int(data[2])<<8
		dst := graph.NodeID(key % 700)
		pos := int32(key) * 31
		switch kind % 8 {
		case 0, 1, 2:
			h.insert(dst, pos)
		case 3, 4:
			h.take(dst)
		case 5:
			if _, ok := h.oracle[dst]; ok {
				h.idx.set(dst, pos, &h.probes)
				h.oracle[dst] = pos
			}
		case 6:
			if kind < 32 { // rare: an explicit doubling, entries kept
				h.idx.grow(&h.probes)
			} else {
				h.insert(dst, pos)
			}
		case 7:
			if kind < 16 { // rare: the pool's reuse, entries dropped
				h.idx.reset(key % 200)
				clear(h.oracle)
			} else {
				h.take(dst)
			}
		}
		h.check(dst)
	}
	for dst := range h.oracle {
		h.lookup(dst)
	}
	if h.step > 0 && h.probes == 0 {
		t.Fatal("probe accounting is dead")
	}
}

func (h *indexHarness) insert(dst graph.NodeID, pos int32) {
	size, brink := len(h.idx.slots), float64(len(h.oracle)+1) > idxMaxLoad*float64(len(h.idx.slots))
	got, found := h.idx.insert(dst, pos, &h.probes)
	want, present := h.oracle[dst]
	if found != present || (found && got != want) {
		h.t.Fatalf("step %d: insert(%d) = (%d,%v), oracle has (%d,%v)", h.step, dst, got, found, want, present)
	}
	if !present {
		h.oracle[dst] = pos
	}
	// The table doubles exactly when a new key would pass the load
	// factor; a duplicate never grows it.
	wantSize := size
	if brink && !present {
		wantSize = 2 * size
	}
	if len(h.idx.slots) != wantSize {
		h.t.Fatalf("step %d: insert(%d) present=%v at %d/%d entries left %d slots, want %d",
			h.step, dst, present, len(h.oracle), size, len(h.idx.slots), wantSize)
	}
}

func (h *indexHarness) take(dst graph.NodeID) {
	got, found := h.idx.take(dst, &h.probes)
	want, present := h.oracle[dst]
	if found != present || (found && got != want) {
		h.t.Fatalf("step %d: take(%d) = (%d,%v), oracle has (%d,%v)", h.step, dst, got, found, want, present)
	}
	delete(h.oracle, dst)
}

func (h *indexHarness) lookup(dst graph.NodeID) {
	i, found := h.idx.find(dst, &h.probes)
	want, present := h.oracle[dst]
	if found != present || (present && h.idx.slots[i] != idxSlot{dst: dst, pos: want + 1}) {
		h.t.Fatalf("step %d: find(%d) = slot %d %+v (%v), oracle has (%d,%v)", h.step, dst, i, h.idx.slots[i], found, want, present)
	}
}

// check holds the table to the oracle and to the Robin Hood invariant:
// the residents are exactly the oracle's entries, each once, no cluster has an empty
// slot inside it (a resident away from home has an occupied predecessor),
// and each resident's distance is at most its predecessor's plus one —
// which is what lets a lookup stop at the first resident closer to home
// than the probe.
func (h *indexHarness) check(touched graph.NodeID) {
	t := h.idx
	if t.count != len(h.oracle) {
		h.t.Fatalf("step %d: count %d, oracle holds %d", h.step, t.count, len(h.oracle))
	}
	if n := len(t.slots); n < idxMinSize || n&(n-1) != 0 {
		h.t.Fatalf("step %d: %d slots", h.step, n)
	}
	clear(h.seen)
	for i, s := range t.slots {
		if s.pos == 0 {
			continue
		}
		if want, ok := h.oracle[s.dst]; !ok || want != s.pos-1 || h.seen[s.dst] {
			h.t.Fatalf("step %d: slot %d holds %d→%d (seen before: %v), oracle has (%d,%v)",
				h.step, i, s.dst, s.pos-1, h.seen[s.dst], want, ok)
		}
		h.seen[s.dst] = true
		d := t.dist(uint64(i), s.dst)
		if d == 0 {
			continue
		}
		prev := t.slots[(uint64(i)-1)&t.mask()]
		if prev.pos == 0 {
			h.t.Fatalf("step %d: slot %d is %d from home behind an empty slot", h.step, i, d)
		}
		if pd := t.dist((uint64(i)-1)&t.mask(), prev.dst); d > pd+1 {
			h.t.Fatalf("step %d: slot %d is %d from home, its predecessor %d", h.step, i, d, pd)
		}
	}
	if len(h.seen) != len(h.oracle) {
		h.t.Fatalf("step %d: %d residents, oracle holds %d", h.step, len(h.seen), len(h.oracle))
	}
	h.lookup(touched)
}

// TestDstIndexAgainstMap is the property test: random operation streams,
// dense in collisions, checked after every operation.
func TestDstIndexAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*6000)
		rng.Read(data)
		if seed%2 == 0 {
			// Insert-heavy: the table climbs through several doublings.
			for i := 0; i < len(data); i += 3 {
				if data[i]%8 >= 3 && rng.Intn(3) > 0 {
					data[i] = 0
				}
			}
		}
		runIndexOps(t, data)
	}
}

func FuzzDstIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 3, 1, 0})
	seed := make([]byte, 3*400)
	rand.New(rand.NewSource(20)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) { runIndexOps(t, data) })
}

// walkLen is the number of slots one probe walk for dst visits: from its
// home slot to the slot holding it or, for an absent dst, to the first
// empty slot (a Robin Hood placement carries displaced residents that far).
func walkLen(t *dstIndex, dst graph.NodeID) uint64 {
	n := uint64(1)
	for i := t.home(dst); t.slots[i].pos != 0 && t.slots[i].dst != dst; i = (i + 1) & t.mask() {
		n++
	}
	return n
}

// TestHashTierOpsChargeOneWalk: a hash-tier insert — new edge or
// overwrite — and a hash-tier delete of the array's last entry each
// charge ScanSteps exactly one probe walk; deleting an interior entry adds
// the one walk that re-points the entry swapped into its place.
func TestHashTierOpsChargeOneWalk(t *testing.T) {
	s := newStore(1, 6, 0)
	for i := 1; i <= 20; i++ {
		apply(s, graph.Edge{Src: 0, Dst: graph.NodeID(7 * i), Weight: 1})
	}
	if s.TierOf(0) != TierHash {
		t.Fatalf("tier = %v, want hash", s.TierOf(0))
	}
	v := &s.verts[0]
	charged := func(op func()) uint64 {
		before := s.UpdateProfile().ScanSteps
		op()
		return s.UpdateProfile().ScanSteps - before
	}
	ins := func(dst graph.NodeID) func() {
		return func() { s.UpdateEdges([]graph.Edge{{Src: 0, Dst: dst, Weight: 2}}) }
	}
	del := func(dst graph.NodeID) func() {
		return func() { s.DeleteEdges([]graph.Edge{{Src: 0, Dst: dst}}) }
	}

	slots := len(v.idx.slots)
	want := walkLen(v.idx, 1000)
	if got := charged(ins(1000)); got != want {
		t.Errorf("insert of a new edge charged %d probes, one walk is %d", got, want)
	}
	want = walkLen(v.idx, 70)
	if got := charged(ins(70)); got != want {
		t.Errorf("overwrite charged %d probes, one walk is %d", got, want)
	}
	if len(v.idx.slots) != slots {
		t.Fatalf("table grew from %d to %d slots: the inserts above were meant to stay clear of the load factor", slots, len(v.idx.slots))
	}

	last := v.arr[len(v.arr)-1].ID
	want = walkLen(v.idx, last)
	if got := charged(del(last)); got != want {
		t.Errorf("delete of the last entry charged %d probes, one walk is %d", got, want)
	}
	interior, moved := v.arr[3].ID, v.arr[len(v.arr)-1].ID
	want = walkLen(v.idx, interior)
	got := charged(del(interior))
	if want += walkLen(v.idx, moved); got != want {
		t.Errorf("delete of an interior entry charged %d probes, take + set walk %d", got, want)
	}
	if v.arr[3].ID != moved {
		t.Fatalf("swap-with-last put %d at position 3, want %d", v.arr[3].ID, moved)
	}
	if want = walkLen(v.idx, 4242); charged(del(4242)) != want {
		t.Errorf("delete of an absent edge did not charge one walk of %d", want)
	}
}
