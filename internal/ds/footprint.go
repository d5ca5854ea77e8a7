package ds

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
