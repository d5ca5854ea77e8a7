package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sagabench/internal/compute"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

// A checkpoint is a single self-checking snapshot file,
// checkpoint-%016d.ckpt, named by the last applied sequence number:
//
//	[8B magic "SAGACKP1"][u32 body length][u32 crc32c(body)][body]
//
// The body serializes the full adjacency (as exported canonical edges)
// plus the compute engine's cross-batch state. Files are written to a
// .tmp sibling, fsynced, and renamed into place, so a crash mid-write
// leaves either the previous checkpoint or a complete new one — never a
// half-written file that parses. Recovery takes the newest checkpoint
// whose checksum verifies and falls back to older ones otherwise.

const (
	ckptMagic  = "SAGACKP1"
	ckptSuffix = ".ckpt"
	ckptPrefix = "checkpoint-"
	ckptKeep   = 2
)

// Checkpoint is one decoded snapshot: everything needed to rebuild the
// pipeline's in-memory state at sequence Seq.
type Checkpoint struct {
	Seq      uint64
	Directed bool
	NumNodes int
	Edges    []graph.Edge
	Engine   *compute.State
}

func encodeCheckpoint(cp *Checkpoint) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, cp.Seq)
	flags := byte(0)
	if cp.Directed {
		flags |= 1
	}
	if cp.Engine != nil {
		flags |= 2
	}
	body = append(body, flags)
	body = binary.LittleEndian.AppendUint64(body, uint64(cp.NumNodes))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.Edges)))
	for _, e := range cp.Edges {
		body = binary.LittleEndian.AppendUint32(body, uint32(e.Src))
		body = binary.LittleEndian.AppendUint32(body, uint32(e.Dst))
		body = binary.LittleEndian.AppendUint32(body, math.Float32bits(float32(e.Weight)))
	}
	if cp.Engine != nil {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.Engine.Values)))
		for _, f := range cp.Engine.Values {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(f))
		}
		body = binary.LittleEndian.AppendUint64(body, uint64(cp.Engine.LastN))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.Engine.Pending)))
		for _, v := range cp.Engine.Pending {
			body = binary.LittleEndian.AppendUint32(body, uint32(v))
		}
	}
	out := make([]byte, 0, len(ckptMagic)+8+len(body))
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	return append(out, body...)
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+8 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("durable: bad checkpoint magic")
	}
	blen := int(binary.LittleEndian.Uint32(data[len(ckptMagic) : len(ckptMagic)+4]))
	crc := binary.LittleEndian.Uint32(data[len(ckptMagic)+4 : len(ckptMagic)+8])
	body := data[len(ckptMagic)+8:]
	if len(body) != blen {
		return nil, fmt.Errorf("durable: checkpoint body %d bytes, header says %d", len(body), blen)
	}
	if crc32.Checksum(body, crcTable) != crc {
		return nil, fmt.Errorf("durable: checkpoint checksum mismatch")
	}
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("durable: checkpoint body truncated")
		}
		return nil
	}
	if err := need(8 + 1 + 8 + 4); err != nil {
		return nil, err
	}
	cp := &Checkpoint{Seq: binary.LittleEndian.Uint64(body[0:8])}
	flags := body[8]
	cp.Directed = flags&1 != 0
	hasEngine := flags&2 != 0
	cp.NumNodes = int(binary.LittleEndian.Uint64(body[9:17]))
	nEdges := int(binary.LittleEndian.Uint32(body[17:21]))
	body = body[21:]
	if err := need(12 * nEdges); err != nil {
		return nil, err
	}
	if nEdges > 0 {
		cp.Edges = make([]graph.Edge, nEdges)
		for i := range cp.Edges {
			cp.Edges[i] = graph.Edge{
				Src:    graph.NodeID(binary.LittleEndian.Uint32(body[0:4])),
				Dst:    graph.NodeID(binary.LittleEndian.Uint32(body[4:8])),
				Weight: graph.Weight(math.Float32frombits(binary.LittleEndian.Uint32(body[8:12]))),
			}
			body = body[12:]
		}
	}
	if hasEngine {
		if err := need(4); err != nil {
			return nil, err
		}
		nVals := int(binary.LittleEndian.Uint32(body[0:4]))
		body = body[4:]
		if err := need(8*nVals + 8 + 4); err != nil {
			return nil, err
		}
		st := &compute.State{}
		if nVals > 0 {
			st.Values = make([]float64, nVals)
			for i := range st.Values {
				st.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[0:8]))
				body = body[8:]
			}
		}
		st.LastN = int(binary.LittleEndian.Uint64(body[0:8]))
		nPend := int(binary.LittleEndian.Uint32(body[8:12]))
		body = body[12:]
		if err := need(4 * nPend); err != nil {
			return nil, err
		}
		if nPend > 0 {
			st.Pending = make([]graph.NodeID, nPend)
			for i := range st.Pending {
				st.Pending[i] = graph.NodeID(binary.LittleEndian.Uint32(body[0:4]))
				body = body[4:]
			}
		}
		cp.Engine = st
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("durable: checkpoint has %d trailing bytes", len(body))
	}
	return cp, nil
}

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix))
}

// listCheckpoints returns checkpoint paths sorted newest (highest seq)
// first.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type named struct {
		path string
		seq  uint64
	}
	var cks []named
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		cks = append(cks, named{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].seq > cks[j].seq })
	paths := make([]string, len(cks))
	for i, c := range cks {
		paths[i] = c.path
	}
	return paths, nil
}

// loadLatestCheckpoint returns the newest checkpoint that decodes and
// checksums cleanly, or nil when none exists. Corrupt files are skipped
// (logged via the returned names is unnecessary — an older valid
// checkpoint plus the uncollected WAL reconstructs the same state).
func loadLatestCheckpoint(dir string) (*Checkpoint, error) {
	paths, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		cp, err := decodeCheckpoint(data)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", path, err)
			continue
		}
		return cp, nil
	}
	if len(paths) > 0 && lastErr != nil {
		return nil, fmt.Errorf("durable: no valid checkpoint (last error: %w)", lastErr)
	}
	return nil, nil
}

// writeCheckpointFile atomically persists cp: write a .tmp sibling, fsync
// it, fire the mid-checkpoint crash hook, rename into place, fsync the
// directory. The temp write (idempotent: O_TRUNC recreates it) and the
// rename are separately retried units.
func writeCheckpointFile(dir string, cp *Checkpoint, cfg Config, retry func(op string, fn func() error) error) error {
	final := ckptPath(dir, cp.Seq)
	tmp := final + ".tmp"
	data := encodeCheckpoint(cp)
	err := retry("ckpt-write", func() error {
		return writeCkptTemp(tmp, data, cfg.IO)
	})
	if err != nil {
		return err
	}
	if cfg.Crash != nil {
		cfg.Crash(CrashMidCheckpoint)
	}
	err = retry("ckpt-rename", func() error {
		if err := fault.Inject(cfg.IO, fault.OpCkptRename); err != nil {
			return fmt.Errorf("durable: checkpoint rename: %w", err)
		}
		return os.Rename(tmp, final)
	})
	if err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// writeCkptTemp writes and fsyncs the checkpoint temp file. O_TRUNC makes
// a retry start from a clean file, so a torn previous attempt cannot
// leak into the renamed checkpoint.
func writeCkptTemp(tmp string, data []byte, inj fault.Injector) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := fault.Inject(inj, fault.OpCkptWrite); err != nil {
		if errors.Is(err, fault.ErrShortWrite) {
			// Tear the temp file the way a real partial write would.
			// saga:allow errcheck-durable -- deliberately simulating a partial write; the injected error is returned.
			f.Write(data[:len(data)/2])
		}
		// saga:allow errcheck-durable -- abandoning the temp file; the injected error is returned.
		f.Close()
		return err
	}
	if _, err := f.Write(data); err != nil {
		// saga:allow errcheck-durable -- abandoning the temp file; the write error is returned.
		f.Close()
		return err
	}
	if err := fault.Inject(inj, fault.OpCkptSync); err != nil {
		// saga:allow errcheck-durable -- abandoning the temp file; the injected error is returned.
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		// saga:allow errcheck-durable -- abandoning the temp file; the sync error is returned.
		f.Close()
		return err
	}
	return f.Close()
}

// gcCheckpoints removes all but the ckptKeep newest checkpoints. Keeping
// one spare means a checkpoint that turns out corrupt on the next open
// still has a fallback.
func gcCheckpoints(dir string) {
	paths, err := listCheckpoints(dir)
	if err != nil {
		return
	}
	for _, path := range paths[min(len(paths), ckptKeep):] {
		// saga:allow errcheck-durable -- best-effort GC; a surviving old checkpoint is harmless.
		os.Remove(path)
	}
}

// removeStaleTemps deletes orphaned .tmp files left by a crash between
// temp-write and rename.
func removeStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			// saga:allow errcheck-durable -- best-effort cleanup; a stale temp is re-removed next open.
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}
