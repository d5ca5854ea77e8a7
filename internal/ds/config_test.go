package ds_test

import (
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
)

// TestConfigDefaults: New normalises a Config once for every constructor —
// Threads to at least 1, Chunks to Threads unless set — which the chunked
// stores report through Chunks.
func TestConfigDefaults(t *testing.T) {
	cases := []struct {
		cfg  ds.Config
		want int
	}{
		{ds.Config{}, 1},
		{ds.Config{Threads: -2}, 1},
		{ds.Config{Threads: 6}, 6},
		{ds.Config{Threads: 6, Chunks: 3}, 3},
	}
	for _, name := range []string{"adjchunked", "dah", "hybrid"} {
		for _, c := range cases {
			st, ok := ds.MustNew(name, c.cfg).(*ds.TwoCopy).OutStore().(interface{ Chunks() int })
			if !ok {
				t.Fatalf("%s: store does not report Chunks", name)
			}
			if got := st.Chunks(); got != c.want {
				t.Errorf("%s %+v: chunks=%d want %d", name, c.cfg, got, c.want)
			}
		}
	}
}
