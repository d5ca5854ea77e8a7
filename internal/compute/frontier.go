package compute

import (
	"math/bits"
	"sync/atomic"

	"sagabench/internal/graph"
)

// frontier is a vertex set: one bit per vertex, and the only frontier
// representation either engine has. Marking is idempotent, so
// the set deduplicates by construction, and drain reads it back in
// ascending vertex order — the order the flat view lays its index and
// (after PR 14's ordered refresh) its arena tail out in, so a round walks
// spans, values and contributions forward through memory instead of in
// discovery order.
//
// Discipline, as for values.put: mark is a plain OR for the sequential
// stretches of a phase (seeding, single-range passes, the sequential
// kernels); markAtomic is for passes that run more than one range; drain
// runs between passes, behind the barrier that ends them.
type frontier []uint64

// sized returns f covering n vertices, keeping its (all-zero) words.
func (f frontier) sized(n int) frontier {
	for len(f) < (n+63)/64 {
		f = append(f, 0)
	}
	return f
}

func (f frontier) mark(v graph.NodeID) { f[v>>6] |= 1 << (v & 63) }

// markAtomic is mark for concurrent markers: a test that skips the locked
// operation for a bit already set (a hub is marked by every neighbour),
// then a CAS loop — atomic.OrUint64 needs go 1.23, go.mod says 1.22.
func (f frontier) markAtomic(v graph.NodeID) {
	p, bit := &f[v>>6], uint64(1)<<(v&63)
	for {
		old := atomic.LoadUint64(p)
		if old&bit != 0 || atomic.CompareAndSwapUint64(p, old, old|bit) {
			return
		}
	}
}

// has reports whether v is marked: in sequential stretches, or in a pass
// during which no worker marks f.
func (f frontier) has(v graph.NodeID) bool { return f[v>>6]&(1<<(v&63)) != 0 }

// markOne is mark when plain, else markAtomic.
func (f frontier) markOne(v graph.NodeID, plain bool) {
	if plain {
		f.mark(v)
	} else {
		f.markAtomic(v)
	}
}

// markRun marks every neighbor of run: plainly in a sequential stretch,
// atomically otherwise.
//
// saga:hotpath
func (f frontier) markRun(run []graph.Neighbor, plain bool) {
	if plain {
		for _, nb := range run {
			f.mark(nb.ID)
		}
		return
	}
	for _, nb := range run {
		f.markAtomic(nb.ID)
	}
}

// count reports how many vertices are marked.
func (f frontier) count() int {
	n := 0
	for _, w := range f {
		n += bits.OnesCount64(w)
	}
	return n
}

// drain moves the set into dst (reused), ascending, and leaves f empty.
func (f frontier) drain(dst []graph.NodeID) []graph.NodeID {
	dst = dst[:0]
	for i, w := range f {
		if w == 0 {
			continue
		}
		f[i] = 0
		for base := graph.NodeID(i) << 6; w != 0; w &= w - 1 {
			dst = append(dst, base+graph.NodeID(bits.TrailingZeros64(w)))
		}
	}
	return dst
}
