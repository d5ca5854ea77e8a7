package hybrid

import (
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// indexHarness drives a dstIndex over an edge array the way the store
// does, beside a map from destination to array position (a slice over the
// key space, for the fuzzer's speed). Each operation is
// three bytes — kind, then a 16-bit key folded into a space small enough
// that keys collide, repeat and force growth — so a property test and the
// fuzzer share it. Tables come from, and go back to, a chunk's pools.
type indexHarness struct {
	t      *testing.T
	pool   chunkPools
	idx    *dstIndex
	arr    []graph.Neighbor // the vertex's dense run: the index maps into it
	oracle []int32          // position+1 by destination, 0 when absent
	size   int              // present keys
	seen   []bool           // check's scratch
	probes uint64
	step   int

	// What the stream exercised, for the property test's coverage checks.
	classes map[int]bool // table sizes seen
	shrinks int          // resizes to a smaller class
	wraps   int          // checks that found a cluster running past the last slot into slot 0
}

// harnessKeys is the key space: small enough that keys collide and repeat.
const harnessKeys = 700

func runIndexOps(t *testing.T, data []byte) *indexHarness {
	t.Helper()
	h := &indexHarness{t: t, oracle: make([]int32, harnessKeys), seen: make([]bool, harnessKeys), classes: map[int]bool{}}
	h.idx = h.pool.getIdx(idxMinSize)
	for ; len(data) >= 3; data, h.step = data[3:], h.step+1 {
		kind, key := data[0], int(data[1])|int(data[2])<<8
		dst := graph.NodeID(key % harnessKeys)
		switch kind % 8 {
		case 0, 1, 2:
			h.insert(dst)
		case 3, 4:
			h.take(dst)
		case 5:
			h.moveToEnd(dst)
		case 6:
			if kind < 32 { // rare: a resize to any class that holds the entries, entries kept
				h.resize(classOf(IndexSlotsFor(h.size)) + key%6)
			} else {
				h.insert(dst)
			}
		case 7:
			if kind < 16 { // rare: the table back to the pool and a fresh one drawn, entries dropped
				h.pool.putIdx(h.idx)
				h.idx = h.pool.getIdx(classCap(classOf(idxMinSize) + key%6))
				clear(h.oracle)
				h.size, h.arr = 0, h.arr[:0]
			} else {
				h.take(dst)
			}
		}
		h.classes[len(h.idx.slots)] = true
		h.check(dst)
	}
	for _, nb := range h.arr {
		h.lookup(nb.ID)
	}
	if h.step > 0 && h.probes == 0 {
		t.Fatal("probe accounting is dead")
	}
	return h
}

// resize moves the table to size class cls and rebuilds it from the
// array, as growth on insert and the shrink after a source's deletes do.
func (h *indexHarness) resize(cls int) {
	c := classCap(cls)
	if c < len(h.idx.slots) {
		h.shrinks++
	}
	h.pool.resizeIdx(h.idx, h.arr, c, &h.probes)
	if len(h.idx.slots) != c {
		h.t.Fatalf("step %d: resize to %d slots left %d", h.step, c, len(h.idx.slots))
	}
}

// want reports the oracle's position for dst.
func (h *indexHarness) want(dst graph.NodeID) (int32, bool) {
	return h.oracle[dst] - 1, h.oracle[dst] != 0
}

func (h *indexHarness) put(dst graph.NodeID, pos int32) { h.oracle[dst] = pos + 1 }

func (h *indexHarness) insert(dst graph.NodeID) {
	size, brink := len(h.idx.slots), overLoad(h.size+1, len(h.idx.slots))
	got, found := h.idx.insert(&h.pool, h.arr, dst, &h.probes)
	want, present := h.want(dst)
	if found != present || (found && got != want) {
		h.t.Fatalf("step %d: insert(%d) = (%d,%v), oracle has (%d,%v)", h.step, dst, got, found, want, present)
	}
	if !present {
		h.put(dst, int32(len(h.arr)))
		h.size++
		h.arr = append(h.arr, graph.Neighbor{ID: dst})
	}
	// The table grows exactly when a new key would pass the load factor,
	// to the smallest class that holds it; a duplicate never grows it.
	wantSize := size
	if brink && !present {
		wantSize = IndexSlotsFor(h.size)
	}
	if len(h.idx.slots) != wantSize {
		h.t.Fatalf("step %d: insert(%d) present=%v at %d/%d entries left %d slots, want %d",
			h.step, dst, present, h.size, size, len(h.idx.slots), wantSize)
	}
}

// take deletes dst as the store does: the array's last entry moves into
// the hole and set re-points it.
func (h *indexHarness) take(dst graph.NodeID) {
	got, found := h.idx.take(h.arr, dst, &h.probes)
	want, present := h.want(dst)
	if found != present || (found && got != want) {
		h.t.Fatalf("step %d: take(%d) = (%d,%v), oracle has (%d,%v)", h.step, dst, got, found, want, present)
	}
	if !found {
		return
	}
	h.oracle[dst] = 0
	h.size--
	last := int32(len(h.arr) - 1)
	if got != last {
		moved := h.arr[last]
		h.arr[got] = moved
		h.idx.set(moved.ID, last, got, &h.probes)
		h.put(moved.ID, got)
	}
	h.arr = h.arr[:last]
}

// moveToEnd swaps a present dst with the array's last entry through set
// alone, keeping every slot's value unique between calls: park dst past
// the end, move the last entry into dst's hole, then dst into the last
// position.
func (h *indexHarness) moveToEnd(dst graph.NodeID) {
	p, ok := h.want(dst)
	if !ok {
		return
	}
	last := int32(len(h.arr) - 1)
	nb := h.arr[p]
	h.idx.set(dst, p, last+1, &h.probes)
	if p != last {
		b := h.arr[last]
		h.arr[p] = b
		h.idx.set(b.ID, last, p, &h.probes)
		h.put(b.ID, p)
	}
	h.arr[last] = nb
	h.idx.set(dst, last+1, last, &h.probes)
	h.put(dst, last)
}

func (h *indexHarness) lookup(dst graph.NodeID) {
	i, found := h.idx.find(h.arr, dst, &h.probes)
	want, present := h.want(dst)
	if found != present || (present && h.idx.slots[i] != idxSlot(want+1)) {
		h.t.Fatalf("step %d: find(%d) = slot %d holding %d (%v), oracle has (%d,%v)", h.step, dst, i, h.idx.slots[i], found, want, present)
	}
}

// check holds the table to the oracle and to the Robin Hood invariant:
// every key's array position holds it, the residents are exactly the
// oracle's entries, each once, no cluster has an empty slot inside it (a
// resident away from home has an occupied predecessor), and each
// resident's distance is at most its predecessor's plus one — which is
// what lets a lookup stop at the first resident closer to home than the
// probe.
func (h *indexHarness) check(touched graph.NodeID) {
	t := h.idx
	if t.count != h.size || len(h.arr) != h.size {
		h.t.Fatalf("step %d: count %d, array %d, oracle holds %d", h.step, t.count, len(h.arr), h.size)
	}
	for dst, p := range h.oracle {
		if p != 0 && h.arr[p-1].ID != graph.NodeID(dst) {
			h.t.Fatalf("step %d: oracle puts %d at %d, the array holds %d there", h.step, dst, p-1, h.arr[p-1].ID)
		}
	}
	if n := len(t.slots); n < idxMinSize || classOf(n) < 0 || overLoad(t.count, n) {
		h.t.Fatalf("step %d: %d slots for %d entries", h.step, n, t.count)
	}
	resident := func(i uint64) graph.NodeID {
		s := t.slots[i]
		if int(s) > len(h.arr) {
			h.t.Fatalf("step %d: slot %d points at %d, past the array's %d entries", h.step, i, s-1, len(h.arr))
		}
		return h.arr[s-1].ID
	}
	clear(h.seen)
	residents := 0
	for i, s := range t.slots {
		if s == 0 {
			continue
		}
		dst := resident(uint64(i))
		if want, ok := h.want(dst); !ok || want != int32(s-1) || h.seen[dst] {
			h.t.Fatalf("step %d: slot %d holds %d→%d (seen before: %v), oracle has (%d,%v)",
				h.step, i, dst, s-1, h.seen[dst], want, ok)
		}
		h.seen[dst] = true
		residents++
		d := t.dist(uint64(i), dst)
		if d == 0 {
			continue
		}
		pi := uint64(i) - 1
		if i == 0 {
			pi = uint64(len(t.slots) - 1)
			h.wraps++
		}
		if t.slots[pi] == 0 {
			h.t.Fatalf("step %d: slot %d is %d from home behind an empty slot", h.step, i, d)
		}
		if pd := t.dist(pi, resident(pi)); d > pd+1 {
			h.t.Fatalf("step %d: slot %d is %d from home, its predecessor %d", h.step, i, d, pd)
		}
	}
	if residents != h.size {
		h.t.Fatalf("step %d: %d residents, oracle holds %d", h.step, residents, h.size)
	}
	h.lookup(touched)
}

// TestDstIndexAgainstMap is the property test: random operation streams,
// dense in collisions, checked after every operation. Between them the
// streams must have used tables of at least eight sizes that are not
// powers of two, shrunk tables, and met clusters that wrap from the last
// slot to the first.
func TestDstIndexAgainstMap(t *testing.T) {
	classes, shrinks, wraps := map[int]bool{}, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*6000)
		rng.Read(data)
		if seed%2 == 0 {
			// Insert-heavy: the table climbs through several classes.
			for i := 0; i < len(data); i += 3 {
				if data[i]%8 >= 3 && rng.Intn(3) > 0 {
					data[i] = 0
				}
			}
		}
		h := runIndexOps(t, data)
		for c := range h.classes {
			classes[c] = true
		}
		shrinks += h.shrinks
		wraps += h.wraps
	}
	odd := 0
	for c := range classes {
		if c&(c-1) != 0 {
			odd++
		}
	}
	if odd < 8 || shrinks == 0 || wraps == 0 {
		t.Fatalf("streams used %d classes (%d not a power of two), %d shrinks, %d wrapped clusters", len(classes), odd, shrinks, wraps)
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
func walkLen(t *dstIndex, arr []graph.Neighbor, dst graph.NodeID) uint64 {
	n := uint64(1)
	for i := t.home(dst); t.slots[i] != 0 && arr[t.slots[i]-1].ID != dst; i = t.next(i) {
		n++
	}
	return n
}

// lookupLen is the number of slots one lookup walk for dst visits: like
// walkLen, except that for an absent dst the walk also ends at the first
// resident closer to its home than the probe is to dst's, which proves
// dst absent.
func lookupLen(t *dstIndex, arr []graph.Neighbor, dst graph.NodeID) uint64 {
	n, d := uint64(1), uint64(0)
	for i := t.home(dst); t.slots[i] != 0; i, d = t.next(i), d+1 {
		if r := arr[t.slots[i]-1].ID; r == dst || t.dist(i, r) < d {
			break
		}
		n++
	}
	return n
}

// TestHashTierOpsChargeOneWalk: a hash-tier insert — new edge or
// overwrite — and a hash-tier delete of the array's last entry each
// charge ScanSteps exactly one probe walk; deleting an interior entry adds
// the one walk that re-points the entry swapped into its place, and
// deleting an absent edge charges the one lookup that proves it absent.
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
		s.TakeProfile(&ds.UpdateProfile{})
		op()
		var p ds.UpdateProfile
		s.TakeProfile(&p)
		return p.ScanSteps
	}
	ins := func(dst graph.NodeID) func() {
		return func() { s.UpdateEdges([]graph.Edge{{Src: 0, Dst: dst, Weight: 2}}) }
	}
	del := func(dst graph.NodeID) func() {
		return func() { s.DeleteEdges([]graph.Edge{{Src: 0, Dst: dst}}) }
	}

	slots := len(v.idx.slots)
	want := walkLen(v.idx, v.run(), 1000)
	if got := charged(ins(1000)); got != want {
		t.Errorf("insert of a new edge charged %d probes, one walk is %d", got, want)
	}
	want = walkLen(v.idx, v.run(), 70)
	if got := charged(ins(70)); got != want {
		t.Errorf("overwrite charged %d probes, one walk is %d", got, want)
	}
	if len(v.idx.slots) != slots {
		t.Fatalf("table grew from %d to %d slots: the inserts above were meant to stay clear of the load factor", slots, len(v.idx.slots))
	}

	run := v.run()
	last := run[len(run)-1].ID
	want = walkLen(v.idx, run, last)
	if got := charged(del(last)); got != want {
		t.Errorf("delete of the last entry charged %d probes, one walk is %d", got, want)
	}
	run = v.run()
	interior, moved := run[3].ID, run[len(run)-1].ID
	want = walkLen(v.idx, run, interior)
	got := charged(del(interior))
	if want += walkLen(v.idx, run, moved); got != want {
		t.Errorf("delete of an interior entry charged %d probes, take + set walk %d", got, want)
	}
	if v.run()[3].ID != moved {
		t.Fatalf("swap-with-last put %d at position 3, want %d", v.run()[3].ID, moved)
	}
	if want = lookupLen(v.idx, v.run(), 4242); charged(del(4242)) != want {
		t.Errorf("delete of an absent edge did not charge one lookup of %d", want)
	}
}
