package durable

import (
	"os"
	"reflect"
	"testing"

	"sagabench/internal/graph"
)

func testCfg(dir string, pol FsyncPolicy) Config {
	return Config{Dir: dir, Fsync: pol}.withDefaults()
}

func mkBatch(base, n int) graph.Batch {
	b := make(graph.Batch, n)
	for i := range b {
		b[i] = graph.Edge{
			Src:    graph.NodeID(base + i),
			Dst:    graph.NodeID(base + i + 1),
			Weight: graph.Weight(float32(i) + 0.5),
		}
	}
	return b
}

var policies = []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever}

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Adds: mkBatch(0, 3), Dels: mkBatch(10, 2)},
		{Seq: 2},
		{Seq: 3, Skip: true},
		{Seq: 1 << 40, Adds: mkBatch(100, 1)},
	}
	var buf []byte
	for _, r := range recs {
		buf = encodeRecord(buf, r)
		got, err := decodeRecord(buf[recHeaderBytes:])
		if err != nil {
			t.Fatalf("seq %d: %v", r.Seq, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("roundtrip: got %+v want %+v", got, r)
		}
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	var buf []byte
	buf = encodeRecord(buf, Record{Seq: 1, Adds: mkBatch(0, 2)})
	payload := append([]byte(nil), buf[recHeaderBytes:]...)
	if _, err := decodeRecord(payload[:5]); err == nil {
		t.Error("short payload should fail")
	}
	if _, err := decodeRecord(payload[:len(payload)-4]); err == nil {
		t.Error("truncated body should fail")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 99
	if _, err := decodeRecord(bad); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestWALAppendLoad writes a mixed batch/skip sequence under every fsync
// policy and checks a fresh WAL reads it back verbatim.
func TestWALAppendLoad(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			w := openWAL(dir, testCfg(dir, pol))
			var want []Record
			for seq := uint64(1); seq <= 20; seq++ {
				r := Record{Seq: seq, Adds: mkBatch(int(seq), 3), Dels: mkBatch(int(seq)+40, 1)}
				if seq%7 == 0 {
					r = Record{Seq: seq, Skip: true}
				}
				if _, _, err := w.append(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			got, err := openWAL(dir, testCfg(dir, pol)).load()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reload: got %d records %+v, want %d", len(got), got, len(want))
			}
		})
	}
}

// TestWALTornTail chops bytes off the final segment — a record torn at
// power loss — and checks recovery truncates to the last valid record and
// appending resumes cleanly, under every fsync policy.
func TestWALTornTail(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			w := openWAL(dir, testCfg(dir, pol))
			for seq := uint64(1); seq <= 10; seq++ {
				if _, _, err := w.append(Record{Seq: seq, Adds: mkBatch(int(seq), 2)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if n, err := TornTail(dir, 3); err != nil || n != 3 {
				t.Fatalf("TornTail removed %d bytes, err %v", n, err)
			}
			w2 := openWAL(dir, testCfg(dir, pol))
			recs, err := w2.load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 9 || recs[len(recs)-1].Seq != 9 {
				t.Fatalf("after torn tail: %d records, last seq %d; want 9 ending at 9",
					len(recs), recs[len(recs)-1].Seq)
			}
			// The truncated log must accept new appends at the cut point.
			if _, _, err := w2.append(Record{Seq: 10, Adds: mkBatch(10, 2)}); err != nil {
				t.Fatal(err)
			}
			if err := w2.close(); err != nil {
				t.Fatal(err)
			}
			recs, err = openWAL(dir, testCfg(dir, pol)).load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 10 || recs[9].Seq != 10 {
				t.Fatalf("after re-append: %d records, want 10", len(recs))
			}
		})
	}
}

// TestWALBitFlip corrupts one bit in the final record and checks the
// checksum catches it: the record is dropped and the log truncated there.
func TestWALBitFlip(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			w := openWAL(dir, testCfg(dir, pol))
			for seq := uint64(1); seq <= 5; seq++ {
				if _, _, err := w.append(Record{Seq: seq, Adds: mkBatch(int(seq), 2)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if ok, err := FlipTailBit(dir); err != nil || !ok {
				t.Fatalf("FlipTailBit: ok=%v err=%v", ok, err)
			}
			recs, err := openWAL(dir, testCfg(dir, pol)).load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 || recs[3].Seq != 4 {
				t.Fatalf("after bit flip: %d records, want the 4 intact ones", len(recs))
			}
		})
	}
}

// TestWALTornMagic destroys the final segment's header below the magic
// length: recovery rewrites a clean empty segment instead of wedging.
func TestWALTornMagic(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(dir, testCfg(dir, FsyncAlways))
	if _, _, err := w.append(Record{Seq: 1, Adds: mkBatch(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	path, err := TailSegment(dir)
	if err != nil || path == "" {
		t.Fatalf("TailSegment: %q, %v", path, err)
	}
	if err := os.Truncate(path, 4); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(dir, testCfg(dir, FsyncAlways))
	recs, err := w2.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("torn magic should empty the segment, got %d records", len(recs))
	}
	if _, _, err := w2.append(Record{Seq: 1, Adds: mkBatch(1, 1)}); err != nil {
		t.Fatal(err)
	}
	w2.close()
}

// TestWALRotationAndGC crosses the segment size with records of about a
// fifth of it, forcing rotation, and checks gc removes exactly the
// segments a checkpoint covers.
func TestWALRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(dir, FsyncNever)
	w := openWAL(dir, cfg)
	for seq := uint64(1); seq <= 20; seq++ {
		if _, _, err := w.append(Record{Seq: seq, Adds: mkBatch(int(seq), segmentBytes/12/5)}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	w.gc(10)
	kept, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) >= len(segs) {
		t.Fatalf("gc(10) removed nothing: %d -> %d segments", len(segs), len(kept))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	recs, err := openWAL(dir, cfg).load()
	if err != nil {
		t.Fatal(err)
	}
	have := map[uint64]bool{}
	for _, r := range recs {
		have[r.Seq] = true
	}
	for seq := uint64(11); seq <= 20; seq++ {
		if !have[seq] {
			t.Fatalf("gc(10) lost record %d, which a checkpoint at 10 does not cover", seq)
		}
	}
}

// TestWALEarlierSegmentCorruption flips a bit in a non-final segment:
// that is unrecoverable corruption, not a torn tail, and must error.
func TestWALEarlierSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(dir, FsyncNever)
	w := openWAL(dir, cfg)
	for seq := uint64(1); seq <= 12; seq++ {
		if _, _, err := w.append(Record{Seq: seq, Adds: mkBatch(int(seq), segmentBytes/12/5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(dir, cfg).load(); err == nil {
		t.Fatal("corruption in a non-final segment must be a hard error")
	}
}
