package compute

import (
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// values is the vertex property array. Both compute models relax values
// chaotically — a worker may pull a neighbor's value while its owner
// rewrites it — so slots are stored as float64 bit patterns accessed with
// atomic loads and stores (plain MOVs on amd64), making the relaxation
// race well-defined: a reader sees either the old or the new value, both
// of which are valid intermediate states of the fixpoint iteration.
type values []uint64

func (v values) get(i int) float64 { return math.Float64frombits(atomic.LoadUint64(&v[i])) }

func (v values) set(i int, f float64) { atomic.StoreUint64(&v[i], math.Float64bits(f)) }

// put is set as a plain store — no XCHG, so it does not fence off the
// loads that follow. Audited use only: the sequential stretches of a
// phase (resets, seeding, the contribution refresh, the sequential FS
// kernels, a pass of one range — see store), and the FS PageRank passes,
// where slot i has
// exactly one writer per pass and every reader of it sits behind the
// barrier that ends the pass.
func (v values) put(i int, f float64) { v[i] = math.Float64bits(f) }

// at is get as a plain load, which the compiler may keep in a register
// or reorder. Audited use only, where no worker can be storing slot i: the
// FS PageRank pull pass, which reads contributions written before the
// barrier that opened it, and ranks that only this worker writes.
func (v values) at(i int) float64 { return math.Float64frombits(v[i]) }

// store is put when plain, else set: a pass that runs as a single range
// is a sequential stretch and stores plainly, one that was cut into
// several ranges stores atomically.
func (v values) store(i int, f float64, plain bool) {
	if plain {
		v.put(i, f)
	} else {
		v.set(i, f)
	}
}

// fill puts f into every slot (sequential phases only, see put).
func (v values) fill(f float64) {
	bits := math.Float64bits(f)
	for i := range v {
		v[i] = bits
	}
}

// materialize copies the values into dst's storage as plain float64s. A
// dst that is too small is regrown in one step: to the size asked when it
// was empty, by append's factor when it was merely short.
//
// A float64 and its bit pattern are the same eight bytes, so the copy is
// one memmove over dst seen as bit patterns: every epoch publish copies
// the whole vector (2 MiB at 2^18 vertices), and a load-convert-store loop
// over it costs 2.5 times the memmove. Callers sit between phases, where
// no worker writes (see put).
func (v values) materialize(dst []float64) []float64 {
	dst = slices.Grow(dst[:0], len(v))[:len(v)]
	copy(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)), v)
	return dst
}
