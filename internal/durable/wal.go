package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

// The write-ahead log is a sequence of segment files, each named by the
// sequence number of its first record (wal-%016d.seg). A segment is an
// 8-byte magic header followed by length-prefixed, CRC-checksummed
// records:
//
//	[u32 payload length][u32 crc32c(payload)][payload]
//
// payload: [u8 kind][u64 seq] + kind-specific body. Batch records carry
// [u32 nAdds][u32 nDels] then (u32 src, u32 dst, u32 float32-bits weight)
// triples; skip records (quarantine tombstones) carry nothing more.
//
// On open every segment is scanned and checksummed. An invalid record in
// the final segment is a torn tail — the file is truncated at the last
// valid record and appending resumes there. An invalid record in an
// earlier segment is unrecoverable corruption and surfaces as an error.

const (
	walMagic       = "SAGAWAL1"
	walSuffix      = ".seg"
	walPrefix      = "wal-"
	recKindBatch   = 1
	recKindSkip    = 2
	recHeaderBytes = 8
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one WAL entry: a durably logged batch, or a skip tombstone
// marking a quarantined sequence number that recovery must not replay.
type Record struct {
	Seq  uint64
	Skip bool
	Adds graph.Batch
	Dels graph.Batch
}

func encodeRecord(buf []byte, r Record) []byte {
	kind := byte(recKindBatch)
	if r.Skip {
		kind = recKindSkip
	}
	payloadLen := 1 + 8
	if !r.Skip {
		payloadLen += 4 + 4 + 12*(len(r.Adds)+len(r.Dels))
	}
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	if !r.Skip {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Adds)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Dels)))
		for _, b := range [2]graph.Batch{r.Adds, r.Dels} {
			for _, e := range b {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(e.Weight)))
			}
		}
	}
	crc := crc32.Checksum(buf[recHeaderBytes:], crcTable)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

func decodeRecord(payload []byte) (Record, error) {
	var r Record
	if len(payload) < 9 {
		return r, fmt.Errorf("durable: record payload too short (%d bytes)", len(payload))
	}
	kind := payload[0]
	r.Seq = binary.LittleEndian.Uint64(payload[1:9])
	rest := payload[9:]
	switch kind {
	case recKindSkip:
		r.Skip = true
		if len(rest) != 0 {
			return r, fmt.Errorf("durable: skip record with %d trailing bytes", len(rest))
		}
		return r, nil
	case recKindBatch:
		if len(rest) < 8 {
			return r, fmt.Errorf("durable: batch record header truncated")
		}
		nAdds := int(binary.LittleEndian.Uint32(rest[0:4]))
		nDels := int(binary.LittleEndian.Uint32(rest[4:8]))
		rest = rest[8:]
		if len(rest) != 12*(nAdds+nDels) {
			return r, fmt.Errorf("durable: batch record body %d bytes, want %d", len(rest), 12*(nAdds+nDels))
		}
		decode := func(n int) graph.Batch {
			if n == 0 {
				return nil
			}
			b := make(graph.Batch, n)
			for i := range b {
				b[i] = graph.Edge{
					Src:    graph.NodeID(binary.LittleEndian.Uint32(rest[0:4])),
					Dst:    graph.NodeID(binary.LittleEndian.Uint32(rest[4:8])),
					Weight: graph.Weight(math.Float32frombits(binary.LittleEndian.Uint32(rest[8:12]))),
				}
				rest = rest[12:]
			}
			return b
		}
		r.Adds = decode(nAdds)
		r.Dels = decode(nDels)
		return r, nil
	default:
		return r, fmt.Errorf("durable: unknown record kind %d", kind)
	}
}

// segmentBytes rotates the active WAL segment past this size.
const segmentBytes = 1 << 20

type walSeg struct {
	path  string
	first uint64
}

// wal owns the segment files of one durability directory.
type wal struct {
	dir string
	cfg Config

	segs []walSeg // sorted by first seq; last is the active segment
	// f is the open active segment, nil until the first append. Only the
	// pipeline's goroutine opens, uses and replaces it; it is atomic for
	// Manager.Abandon, which a supervisor calls from its own goroutine on
	// an instance whose worker may be stalled mid-append.
	f        atomic.Pointer[os.File]
	size     int64  // active segment size, including any torn bytes
	goodSize int64  // size up to the last fully written record
	pending  int    // appends since last fsync (FsyncInterval)
	buf      []byte // encode scratch
}

func openWAL(dir string, cfg Config) *wal {
	return &wal{dir: dir, cfg: cfg}
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", walPrefix, first, walSuffix))
}

// listSegments scans dir for WAL segments sorted by first sequence number.
func listSegments(dir string) ([]walSeg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSeg
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix)
		first, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, walSeg{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// load (re)scans every segment from disk, truncating a torn tail in the
// final segment, and returns all valid records in order. It is called on
// every recovery, including mid-stream rebuilds after quarantine.
func (w *wal) load() ([]Record, error) {
	if f := w.f.Swap(nil); f != nil {
		if err := f.Close(); err != nil {
			// A failed close can mean buffered appends never reached the
			// file; rescanning would silently truncate them as a torn
			// tail. Surface it instead.
			return nil, fmt.Errorf("durable: closing wal segment before rescan: %w", err)
		}
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	w.segs = segs
	var all []Record
	for i, seg := range segs {
		last := i == len(segs)-1
		recs, err := readSegment(seg.path, last)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}

// readSegment scans one segment. In the last segment, the first invalid
// record is treated as a torn tail: the file is truncated there and the
// scan stops cleanly. Anywhere else it is corruption and errors out.
func readSegment(path string, last bool) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		if last {
			// A header torn mid-write: rewrite a clean empty segment.
			if err := os.WriteFile(path, []byte(walMagic), 0o644); err != nil {
				return nil, err
			}
			return nil, nil
		}
		return nil, fmt.Errorf("durable: %s: bad WAL magic", path)
	}
	var recs []Record
	off := len(walMagic)
	for off < len(data) {
		bad := func(why string) ([]Record, error) {
			if last {
				if err := os.Truncate(path, int64(off)); err != nil {
					return nil, err
				}
				return recs, nil
			}
			return nil, fmt.Errorf("durable: %s: offset %d: %s", path, off, why)
		}
		if len(data)-off < recHeaderBytes {
			return bad("torn record header")
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen > maxRecordBytes {
			return bad(fmt.Sprintf("implausible record length %d", plen))
		}
		if len(data)-off-recHeaderBytes < plen {
			return bad("torn record payload")
		}
		payload := data[off+recHeaderBytes : off+recHeaderBytes+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return bad("checksum mismatch")
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return bad(err.Error())
		}
		recs = append(recs, rec)
		off += recHeaderBytes + plen
	}
	return recs, nil
}

// append writes one record under the fsync policy, rotating segments as
// needed. It returns the bytes written and the fsync latency (zero when
// the policy skipped the fsync). The two halves are separately retryable
// units — appendRecord and maybeSync — so a failed fsync is re-attempted
// without re-appending the record.
func (w *wal) append(r Record) (int, time.Duration, error) {
	n, err := w.appendRecord(r)
	if err != nil {
		return 0, 0, err
	}
	fsyncDur, err := w.maybeSync()
	if err != nil {
		return n, 0, err
	}
	return n, fsyncDur, nil
}

// appendRecord writes one record to the active segment, repairing any
// torn bytes a previously failed append left behind. After a successful
// write goodSize advances past the record; after a failed one size may
// exceed goodSize, and the next attempt truncates back before writing —
// so retrying an append never leaves garbage between records.
func (w *wal) appendRecord(r Record) (int, error) {
	if err := w.ensureSegment(r.Seq); err != nil {
		return 0, err
	}
	if err := w.repairTail(); err != nil {
		return 0, fmt.Errorf("durable: WAL tail repair: %w", err)
	}
	w.buf = encodeRecord(w.buf, r)
	if err := fault.Inject(w.cfg.IO, fault.OpWALAppend); err != nil {
		if errors.Is(err, fault.ErrShortWrite) {
			// Tear the record on disk the way a real partial write would,
			// so recovery and the repair path face a genuinely torn tail.
			if n, werr := w.f.Load().Write(w.buf[:len(w.buf)/2]); werr == nil {
				w.size += int64(n)
			}
		}
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	n, err := w.f.Load().Write(w.buf)
	w.size += int64(n)
	if err != nil {
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	w.goodSize = w.size
	w.pending++
	return len(w.buf), nil
}

// repairTail truncates torn bytes left by a failed append so the next
// record starts at the last record boundary.
func (w *wal) repairTail() error {
	f := w.f.Load()
	if f == nil || w.size == w.goodSize {
		return nil
	}
	if err := f.Truncate(w.goodSize); err != nil {
		return err
	}
	// The active segment is not opened O_APPEND when freshly created, so
	// reposition explicitly; on O_APPEND handles the seek is harmless.
	if _, err := f.Seek(w.goodSize, io.SeekStart); err != nil {
		return err
	}
	w.size = w.goodSize
	return nil
}

// maybeSync flushes per the fsync policy, returning the fsync latency
// (zero when the policy skipped it).
func (w *wal) maybeSync() (time.Duration, error) {
	doSync := w.cfg.Fsync == FsyncAlways ||
		(w.cfg.Fsync == FsyncInterval && w.pending >= fsyncEvery)
	if !doSync {
		return 0, nil
	}
	t0 := time.Now()
	if err := w.doSync(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// doSync forces the active segment to stable storage (injectable).
func (w *wal) doSync() error {
	f := w.f.Load()
	if f == nil {
		return nil
	}
	if err := fault.Inject(w.cfg.IO, fault.OpWALFsync); err != nil {
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	w.pending = 0
	return nil
}

// ensureSegment opens the active segment for appending, creating or
// rotating as needed. nextSeq names a newly created segment.
func (w *wal) ensureSegment(nextSeq uint64) error {
	if f := w.f.Load(); f != nil && w.size >= segmentBytes {
		// Rotate: the closing segment's tail must be durable before the
		// new one starts, regardless of policy (except FsyncNever).
		if w.cfg.Fsync != FsyncNever {
			if err := w.doSync(); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		w.f.Store(nil)
		w.pending = 0
	}
	if w.f.Load() != nil {
		return nil
	}
	// Re-open the newest existing segment if it has room; otherwise start
	// a fresh one named by the next sequence number.
	if n := len(w.segs); n > 0 {
		st, err := os.Stat(w.segs[n-1].path)
		if err == nil && st.Size() < segmentBytes {
			f, err := os.OpenFile(w.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			w.f.Store(f)
			w.size, w.goodSize = st.Size(), st.Size()
			return nil
		}
	}
	if err := fault.Inject(w.cfg.IO, fault.OpWALCreate); err != nil {
		return fmt.Errorf("durable: WAL segment create: %w", err)
	}
	path := segPath(w.dir, nextSeq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		// saga:allow errcheck-durable -- abandoning the just-created segment; the write error is returned.
		f.Close()
		return err
	}
	w.f.Store(f)
	w.size, w.goodSize = int64(len(walMagic)), int64(len(walMagic))
	w.segs = append(w.segs, walSeg{path: path, first: nextSeq})
	syncDir(w.dir)
	return nil
}

// gc removes segments wholly covered by a checkpoint at coverSeq: segment
// i is deletable when the following segment starts at or before
// coverSeq+1 (every record recovery could need lives later). The active
// (last) segment is never removed.
func (w *wal) gc(coverSeq uint64) {
	kept := w.segs[:0]
	for i, seg := range w.segs {
		if i+1 < len(w.segs) && w.segs[i+1].first <= coverSeq+1 {
			// saga:allow errcheck-durable -- best-effort GC; a surviving covered segment is re-collected later.
			os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	w.segs = kept
}

// sync forces the active segment to stable storage.
func (w *wal) sync() error {
	return w.doSync()
}

// close flushes (unless FsyncNever) and closes the active segment.
func (w *wal) close() error {
	f := w.f.Load()
	if f == nil {
		return nil
	}
	var err error
	if w.cfg.Fsync != FsyncNever {
		err = w.doSync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	w.f.Store(nil)
	return err
}

// syncDir fsyncs a directory so renames and creates survive power loss;
// best-effort on platforms where directories cannot be synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	// saga:allow errcheck-durable -- documented best-effort: some platforms cannot sync directories.
	d.Sync()
	// saga:allow errcheck-durable -- read-only handle; nothing buffered to lose.
	d.Close()
}
