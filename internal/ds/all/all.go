// Package all registers the four standard SAGA-Bench data structures plus
// the degree-adaptive hybrid. Blank-import it to make ds.New able to
// construct any of them:
//
//	import _ "sagabench/internal/ds/all"
package all

import (
	_ "sagabench/internal/ds/adjchunked"
	_ "sagabench/internal/ds/adjshared"
	_ "sagabench/internal/ds/dah"
	_ "sagabench/internal/ds/hybrid"
	_ "sagabench/internal/ds/stinger"
)
