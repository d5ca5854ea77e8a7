package archsim

// allocator is a bump allocator handing out 16-byte-aligned synthetic
// addresses for the shadow layout models. Allocation order mirrors a
// growing heap: structures allocated while different vertices interleave
// end up scattered, reproducing the fragmentation that makes Stinger block
// chains and reallocated vectors pointer-chase across lines.
type allocator struct{ next uint64 }

// Distinct base offsets keep the major regions (heap, property arrays,
// headers) from aliasing at low addresses.
const (
	heapBase    = 0x0001_0000_0000
	headerBase  = 0x4000_0000_0000
	propBase    = 0x7000_0000_0000
	contribBase = 0x7800_0000_0000
)

func newAllocator() *allocator { return &allocator{next: heapBase} }

func (a *allocator) alloc(bytes uint64) uint64 {
	if bytes == 0 {
		bytes = 16
	}
	bytes = (bytes + 15) &^ 15
	addr := a.next
	a.next += bytes
	return addr
}
