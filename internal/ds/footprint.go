package ds

import (
	"unsafe"

	"sagabench/internal/graph"
)

// Footprint is a structure's resident bytes by owner. Fields a structure
// has no such owner for stay zero. ArrayLive is part of ArrayCap.
type Footprint struct {
	Records    int64 // per-vertex records, at the slice's capacity
	ArrayCap   int64 // edge arrays, at capacity
	ArrayLive  int64 // the part of ArrayCap that holds neighbors
	IndexSlots int64 // per-vertex index tables
	Pooled     int64 // recycled arrays and tables held for reuse
}

func (f *Footprint) add(o Footprint) {
	f.Records += o.Records
	f.ArrayCap += o.ArrayCap
	f.ArrayLive += o.ArrayLive
	f.IndexSlots += o.IndexSlots
	f.Pooled += o.Pooled
}

// Footprinter is implemented by stores that account their resident bytes
// by owner. Footprint walks the store and must not run beside an update.
type Footprinter interface {
	Footprint() Footprint
}

// ViewFootprint is a compute view's resident bytes by owner, over every
// direction it mirrors. Arrays that only a published epoch still reaches
// belong to the epoch and are not counted.
type ViewFootprint struct {
	Arena     int64 // adjacency arenas at capacity, a spare's retired one included
	ArenaLive int64 // the part of Arena the current index reaches
	Index     int64 // span index buffers, both halves of each double buffer
	Dirty     int64 // dirty, rewrite and room bitmaps, the dirty lists and their moves, at capacity
	Degrees   int64 // an in-only mirror's out-degree vector, at capacity
}

// Footprint accounts the view's bytes by owner. It must not run beside a
// Refresh. An arena is counted at its own record size: 8 B per neighbor,
// 4 B per ID in an in-only mirror.
func (v *ComputeView) Footprint() ViewFootprint {
	f := ViewFootprint{Degrees: int64(cap(v.csr.OutDeg)) * 4}
	v.out.footprint(&f)
	v.in.footprint(&f)
	v.ids.footprint(&f)
	return f
}

// footprint adds the direction's bytes to f; a nil direction adds none.
func (d *mirrorDir[R]) footprint(f *ViewFootprint) {
	if d == nil {
		return
	}
	var r R
	size := int64(unsafe.Sizeof(r))
	const (
		span = int64(unsafe.Sizeof(graph.Span{}))
		id   = int64(unsafe.Sizeof(graph.NodeID(0)))
	)
	f.Arena += int64(cap(d.arena)) * size
	f.ArenaLive += int64(d.live) * size
	// The current index owns the arena or nothing; only the spare can
	// hold a retired one.
	if own := d.idx[1-d.cur].own; own != nil && unsafe.SliceData(own) != unsafe.SliceData(d.arena) {
		f.Arena += int64(cap(own)) * size
	}
	f.Index += int64(cap(d.idx[0].spans)+cap(d.idx[1].spans)) * span
	f.Dirty += int64(cap(d.dirty)+cap(d.room)+cap(d.rewr))*8 + int64(cap(d.list)+cap(d.prev))*id +
		int64(cap(d.moves))*int64(unsafe.Sizeof(move{}))
}

// FootprintOf collects the footprint of g if it is accounted; TwoCopy-
// wrapped graphs sum the out- and in-store footprints.
func FootprintOf(g Graph) (Footprint, bool) {
	switch t := g.(type) {
	case *TwoCopy:
		fp, ok := t.out.(Footprinter)
		if !ok {
			return Footprint{}, false
		}
		f := fp.Footprint()
		if t.directed {
			in, ok := t.in.(Footprinter)
			if !ok {
				return Footprint{}, false
			}
			f.add(in.Footprint())
		}
		return f, true
	case Footprinter:
		return t.Footprint(), true
	}
	return Footprint{}, false
}
