package hybrid

import (
	"math/bits"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// chunkPools recycles the high-churn heap objects of one chunk — edge
// arrays and dstIndex tables, one stack per size class of each — so that
// tier transitions and resizes on a warmed-up store reuse memory instead
// of allocating. Each chunk owns its own pools (the store's pools slice is
// chunk-indexed), so workers recycle without locks or cross-chunk traffic.
type chunkPools struct {
	arrs classStacks[*graph.Neighbor] // arrays of classCap(cls) entries, by first element
	idxs classStacks[*dstIndex]       // tables of classCap(cls) slots

	// order is the chunk's scratch for applying a bucket grouped by source.
	order srcOrder

	// rewritten lists the chunk's sources whose run had an entry
	// overwritten with a new weight or removed since the last
	// TakeRewritten, once a first call has set track.
	rewritten []graph.NodeID
	track     bool

	// recycled counts pool hits (arrays + indexes); the steady-state
	// allocation test uses it to prove transitions stop allocating.
	recycled uint64
}

// classStacks holds one stack of pooled objects per size class, how many
// objects of each class were drawn since the last trim, and how many the
// batch before that drew.
type classStacks[T any] struct {
	stock [poolClasses][]T
	drawn [poolClasses]int32
	prev  [poolClasses]int32
}

// pop draws an object of class cls, if the class has stock. The vacated
// spine slot is zeroed so the stack pins nothing it no longer holds.
//
// saga:hotpath
func (s *classStacks[T]) pop(cls int) (x T, ok bool) {
	s.drawn[cls]++
	stack := s.stock[cls]
	if len(stack) == 0 {
		return x, false
	}
	x = stack[len(stack)-1]
	var zero T
	stack[len(stack)-1] = zero
	s.stock[cls] = stack[:len(stack)-1]
	return x, true
}

// push returns an object of class cls to its stack.
//
// saga:hotpath
func (s *classStacks[T]) push(cls int, x T) {
	s.stock[cls] = append(s.stock[cls], x) // saga:allow hotalloc -- stack growth is amortized; steady state reuses the spine (AllocsPerRun asserts 0)
}

// trim runs after every batch, inserts and deletes alike, and keeps of
// each class's stock no more objects than the batch just applied or the
// one before it drew from it. Vertices that climb past a class together —
// a preload batch moves a cohort of hubs up several classes at once —
// leave stock there that the next batches may never ask for, and a delete
// batch releases storage that only the next insert batch might want; four
// classes an octave strand four times as many sizes as a power-of-two
// ladder, so the excess goes back to the collector instead. A stream that
// alternates inserts with the deletes that undo them keeps what it
// re-draws; two batches in a row that draw nothing leave the pools empty.
func (s *classStacks[T]) trim() {
	for cls := range s.stock {
		if keep := int(max(s.drawn[cls], s.prev[cls])); len(s.stock[cls]) > keep {
			clear(s.stock[cls][keep:])
			s.stock[cls] = s.stock[cls][:keep]
		}
		s.prev[cls], s.drawn[cls] = s.drawn[cls], 0
	}
}

// Array capacities are the classes of ds.CapFor's ladder, four per
// octave, so an array past minArrCap holds over four fifths of its
// capacity when it grows. minArrCap is the smallest; the array tier
// starts there so the first appends after an inline→array promotion are
// free.
const (
	minArrCap        = ds.LadderMin
	minArrLog        = 3 // log2(minArrCap)
	classesPerOctave = 4
)

// poolClasses covers 24 octaves from minArrCap, capacities up to 2^27
// entries, far beyond any single vertex's degree.
const poolClasses = 24 * classesPerOctave

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

// shrinkTo is the step-down rule with hysteresis: storage of capacity c
// whose need is the class of capacity need moves to the class one above
// that need once it sits two or more classes above it.
func shrinkTo(c, need, step int) (int, bool) {
	cls, nc := classOf(c), classOf(need)
	if cls < 0 || nc < 0 || cls < nc+2*step {
		return 0, false
	}
	return classCap(nc + step), true
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
	c := ds.CapFor(n)
	if cls := classOf(c); cls >= 0 {
		if a, ok := p.arrs.pop(cls); ok {
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
	if cls := classOf(int(c)); cls >= 0 {
		p.arrs.push(cls, a)
	}
}

// getIdx returns an empty table of c slots, a size class, reusing a
// pooled one when the class has stock.
//
// saga:hotpath
func (p *chunkPools) getIdx(c int) *dstIndex {
	if cls := classOf(c); cls >= 0 {
		if t, ok := p.idxs.pop(cls); ok {
			clear(t.slots)
			t.count = 0
			p.recycled++
			return t
		}
	}
	return newDstIndex(c)
}

// putIdx returns a table to its size-class stack.
//
// saga:hotpath
func (p *chunkPools) putIdx(t *dstIndex) {
	if cls := classOf(len(t.slots)); cls >= 0 {
		p.idxs.push(cls, t)
	}
}

// resizeIdx moves t to a table of c slots, a size class, rebuilt from
// arr. The slots are swapped with a pooled table of that class, which
// goes back to the pool holding t's old slots, so t — the pointer the
// vertex record keeps — stays put.
//
// saga:hotpath
func (p *chunkPools) resizeIdx(t *dstIndex, arr []graph.Neighbor, c int, probes *uint64) {
	nt := p.getIdx(c)
	t.slots, nt.slots = nt.slots, t.slots
	p.putIdx(nt)
	t.fill(arr, probes)
}

// rewrote notes that src's run had an entry it held changed, when a
// view takes the store's rewrite reports.
func (p *chunkPools) rewrote(src graph.NodeID) {
	if p.track {
		p.rewritten = append(p.rewritten, src)
	}
}

// trim drops the stock past what the last two batches drew, of arrays
// and tables alike (see classStacks.trim).
func (p *chunkPools) trim() {
	p.arrs.trim()
	p.idxs.trim()
}

// pooledBytes is what the pools hold: stocked arrays and index tables.
func (p *chunkPools) pooledBytes() int64 {
	var n int64
	for cls := range p.arrs.stock {
		n += int64(len(p.arrs.stock[cls])) * int64(classCap(cls)) * neighborBytes
		n += int64(len(p.idxs.stock[cls])) * int64(classCap(cls)) * int64(IndexSlotBytes)
	}
	return n
}
