package hybrid

import (
	"math/bits"

	"sagabench/internal/graph"
)

// chunkPools recycles the high-churn heap objects of one chunk — edge
// arrays (one stack per size class) and dstIndex tables — so that tier
// transitions and array growth on a warmed-up store reuse memory instead
// of allocating. Each chunk owns its own pools (the store's pools slice is
// chunk-indexed), so workers recycle without locks or cross-chunk traffic.
type chunkPools struct {
	// arrs[cls] holds arrays of classCap(cls) entries, by first element;
	// drawn[cls] counts the arrays getArr handed out of that class since
	// the last trim.
	arrs  [poolClasses][]*graph.Neighbor
	drawn [poolClasses]int32
	idxs  []*dstIndex

	// order is the chunk's scratch for applying a bucket grouped by source.
	order srcOrder

	// recycled counts pool hits (arrays + indexes); the steady-state
	// allocation test uses it to prove transitions stop allocating.
	recycled uint64
}

// Array capacities come in four size classes per octave, 2^e + j·2^(e−2)
// for j = 0..3 — 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, … — so each class
// is at most 1.25× the one below it and an array past minArrCap holds
// over four fifths of its capacity when it grows (a power-of-two ladder:
// half). minArrCap is the smallest; the array tier starts
// there so the first appends after an inline→array promotion are free.
const (
	minArrCap        = 8
	minArrLog        = 3 // log2(minArrCap)
	classesPerOctave = 4
)

// poolClasses covers 24 octaves from minArrCap, capacities up to 2^27
// entries, far beyond any single vertex's degree.
const poolClasses = 24 * classesPerOctave

// CapFor returns the array capacity for n entries: the smallest size
// class ≥ n.
//
// saga:hotpath
func CapFor(n int) int {
	if n <= minArrCap {
		return minArrCap
	}
	// The class above n−1: its top three bits (1jj) rounded up by one
	// step of 2^(e−2); a carry out of 111 is the next octave's 2^(e+1).
	shift := bits.Len(uint(n-1)) - 3
	return ((n-1)>>shift + 1) << shift
}

// classOf maps an array capacity to its size class, or -1 for capacities
// that are not a class (never produced by getArr, but putArr stays
// defensive) or lie past the last pooled class.
//
// saga:hotpath
func classOf(c int) int {
	if c < minArrCap {
		return -1
	}
	shift := bits.Len(uint(c)) - 3
	if c != (c>>shift)<<shift {
		return -1
	}
	cls := (shift+2-minArrLog)*classesPerOctave + (c>>shift - 4)
	if cls >= poolClasses {
		return -1
	}
	return cls
}

// classCap is classOf's inverse: the capacity of size class cls.
//
// saga:hotpath
func classCap(cls int) int {
	e := cls/classesPerOctave + minArrLog
	return (4 + cls%classesPerOctave) << (e - 2)
}

// getArr returns an array with room for ≥ n entries (by its first
// element) and its capacity, reusing a pooled one when the size class has
// stock.
//
// saga:hotpath
func (p *chunkPools) getArr(n int) (*graph.Neighbor, int32) {
	c := CapFor(n)
	if cls := classOf(c); cls >= 0 {
		p.drawn[cls]++
		if stack := p.arrs[cls]; len(stack) > 0 {
			a := stack[len(stack)-1]
			p.arrs[cls] = stack[:len(stack)-1]
			p.recycled++
			return a, int32(c)
		}
	}
	return &make([]graph.Neighbor, c)[0], int32(c) // saga:allow hotalloc -- cold-start fallback; warmed-up transitions hit the pool (AllocsPerRun asserts 0)
}

// putArr returns an array of capacity c to its size-class stack.
//
// saga:hotpath
func (p *chunkPools) putArr(a *graph.Neighbor, c int32) {
	cls := classOf(int(c))
	if cls < 0 {
		return
	}
	p.arrs[cls] = append(p.arrs[cls], a) // saga:allow hotalloc -- stack growth is amortized; steady state reuses the spine (AllocsPerRun asserts 0)
}

// trim keeps of each class's stock no more arrays than the batch just
// applied drew from it. Vertices that climb past a class together — a
// preload batch moves a cohort of hubs up several classes at once — leave
// stock there that the next batches may never ask for; four classes an
// octave strand four times as many sizes as a power-of-two ladder, so the
// excess goes back to the collector instead. A stream whose batches draw
// what the previous deletes returned keeps all of it.
func (p *chunkPools) trim() {
	for cls := range p.arrs {
		if keep := int(p.drawn[cls]); len(p.arrs[cls]) > keep {
			clear(p.arrs[cls][keep:])
			p.arrs[cls] = p.arrs[cls][:keep]
		}
		p.drawn[cls] = 0
	}
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

// pooledBytes is what the pools hold: stocked arrays and index tables.
func (p *chunkPools) pooledBytes() int64 {
	var n int64
	for cls, stack := range p.arrs {
		n += int64(len(stack)) * int64(classCap(cls)) * neighborBytes
	}
	for _, t := range p.idxs {
		n += int64(len(t.slots)) * int64(IndexSlotBytes)
	}
	return n
}
