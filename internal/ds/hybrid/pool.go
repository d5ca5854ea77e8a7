package hybrid

import (
	"math/bits"

	"sagabench/internal/graph"
)

// chunkPools recycles the high-churn heap objects of one chunk — edge
// arrays (by power-of-two size class) and dstIndex tables — so that tier
// transitions and array growth on a warmed-up store reuse memory instead
// of allocating. Each chunk owns its own pools (the store's pools slice is
// chunk-indexed), so workers recycle without locks or cross-chunk traffic.
type chunkPools struct {
	arrs [poolClasses][][]graph.Neighbor
	idxs []*dstIndex

	// order is the chunk's scratch for applying a bucket grouped by source.
	order srcOrder

	// recycled counts pool hits (arrays + indexes); the steady-state
	// allocation test uses it to prove transitions stop allocating.
	recycled uint64
}

// minArrCap is the smallest pooled array capacity; the array tier starts
// here so the first few appends after an inline→array promotion are free.
const minArrCap = 8

// poolClasses covers capacities minArrCap<<0 .. minArrCap<<(poolClasses-1);
// 24 classes reach 2^27 entries, far beyond any single vertex's degree.
const poolClasses = 24

// capFor returns the pooled (power-of-two) capacity for n entries.
func capFor(n int) int {
	c := minArrCap
	for c < n {
		c *= 2
	}
	return c
}

// classOf maps a pooled capacity to its size class, or -1 for foreign
// capacities (never produced by getArr, but putArr stays defensive).
func classOf(c int) int {
	if c < minArrCap || c&(c-1) != 0 {
		return -1
	}
	cls := bits.TrailingZeros(uint(c)) - bits.TrailingZeros(uint(minArrCap))
	if cls >= poolClasses {
		return -1
	}
	return cls
}

// getArr returns an empty array with capacity ≥ n, reusing a pooled one
// when the size class has stock.
//
// saga:hotpath
func (p *chunkPools) getArr(n int) []graph.Neighbor {
	c := capFor(n)
	if cls := classOf(c); cls >= 0 {
		if stack := p.arrs[cls]; len(stack) > 0 {
			a := stack[len(stack)-1]
			p.arrs[cls] = stack[:len(stack)-1]
			p.recycled++
			return a
		}
	}
	return make([]graph.Neighbor, 0, c) // saga:allow hotalloc -- cold-start fallback; warmed-up transitions hit the pool (AllocsPerRun asserts 0)
}

// putArr returns an array to its size-class stack.
//
// saga:hotpath
func (p *chunkPools) putArr(a []graph.Neighbor) {
	cls := classOf(cap(a))
	if cls < 0 {
		return
	}
	p.arrs[cls] = append(p.arrs[cls], a[:0]) // saga:allow hotalloc -- stack growth is amortized; steady state reuses the spine (AllocsPerRun asserts 0)
}

// getIdx returns an index sized for n entries, reusing a pooled table when
// available.
//
// saga:hotpath
func (p *chunkPools) getIdx(n int) *dstIndex {
	if len(p.idxs) > 0 {
		t := p.idxs[len(p.idxs)-1]
		p.idxs = p.idxs[:len(p.idxs)-1]
		t.reset(n)
		p.recycled++
		return t
	}
	return newDstIndex(n)
}

// putIdx returns an index to the pool.
//
// saga:hotpath
func (p *chunkPools) putIdx(t *dstIndex) {
	p.idxs = append(p.idxs, t) // saga:allow hotalloc -- stack growth is amortized; steady state reuses the spine (AllocsPerRun asserts 0)
}
