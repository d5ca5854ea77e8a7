package crosscheck

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sagabench/internal/compute"
	"sagabench/internal/graph"
)

// Repro is a self-contained, replayable reproducer: the minimized stream
// plus the configuration needed to re-trigger one specific failure. It
// serializes to a line-oriented text file that `sagafuzz -replay`
// consumes and that regression tests check in under testdata/.
type Repro struct {
	// Directed is the stream's directedness.
	Directed bool
	// Threads is the worker count used when the failure was found.
	Threads int
	// DS is the failing data structure.
	DS string
	// Alg/Model identify the failing engine; an empty Alg means the
	// failure was topological and replay skips the engines entirely.
	Alg   string
	Model compute.Model
	// Source is the root vertex for the source-based algorithms.
	Source graph.NodeID
	// Note is a free-form description (the original failure detail).
	Note string
	// Stream is the minimized failing stream.
	Stream Stream
}

const reproHeader = "sagafuzz repro v1"

// Write serializes the repro.
func (r *Repro) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, reproHeader)
	if r.Note != "" {
		for _, line := range strings.Split(r.Note, "\n") {
			fmt.Fprintf(bw, "# %s\n", line)
		}
	}
	fmt.Fprintf(bw, "directed %v\n", r.Directed)
	fmt.Fprintf(bw, "threads %d\n", r.Threads)
	fmt.Fprintf(bw, "ds %s\n", r.DS)
	if r.Alg != "" {
		fmt.Fprintf(bw, "alg %s\n", r.Alg)
		fmt.Fprintf(bw, "model %s\n", r.Model)
		fmt.Fprintf(bw, "source %d\n", r.Source)
	}
	for _, step := range r.Stream {
		fmt.Fprintln(bw, "batch")
		for _, e := range step.Adds {
			fmt.Fprintf(bw, "add %d %d %g\n", e.Src, e.Dst, e.Weight)
		}
		for _, e := range step.Dels {
			fmt.Fprintf(bw, "del %d %d %g\n", e.Src, e.Dst, e.Weight)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("crosscheck: %w", err)
	}
	return nil
}

// WriteFile serializes the repro to path.
func (r *Repro) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseRepro deserializes a repro file.
func ParseRepro(rd io.Reader) (*Repro, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("crosscheck: empty repro")
	}
	if strings.TrimSpace(sc.Text()) != reproHeader {
		return nil, fmt.Errorf("crosscheck: bad repro header %q", sc.Text())
	}
	r := &Repro{Model: compute.FS}
	lineNo := 1
	inStream := false
	var noteLines []string
	parseEdge := func(fields []string) (graph.Edge, error) {
		var e graph.Edge
		if len(fields) != 4 {
			return e, fmt.Errorf("want 4 fields, got %d", len(fields))
		}
		src, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return e, fmt.Errorf("source: %w", err)
		}
		dst, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return e, fmt.Errorf("destination: %w", err)
		}
		w, err := strconv.ParseFloat(fields[3], 32)
		if err != nil {
			return e, fmt.Errorf("weight: %w", err)
		}
		return graph.Edge{Src: graph.NodeID(src), Dst: graph.NodeID(dst), Weight: graph.Weight(w)}, nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Comment lines are the serialized Note; restore it so a
			// parsed repro keeps its provenance.
			noteLines = append(noteLines, strings.TrimSpace(strings.TrimPrefix(line, "#")))
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]
		if inStream && key != "batch" && key != "add" && key != "del" {
			return nil, fmt.Errorf("crosscheck: line %d: directive %q after first batch", lineNo, key)
		}
		var err error
		switch key {
		case "directed":
			if len(fields) != 2 {
				return nil, fmt.Errorf("crosscheck: line %d: malformed directed", lineNo)
			}
			r.Directed, err = strconv.ParseBool(fields[1])
		case "threads":
			if len(fields) != 2 {
				return nil, fmt.Errorf("crosscheck: line %d: malformed threads", lineNo)
			}
			r.Threads, err = strconv.Atoi(fields[1])
		case "ds":
			if len(fields) != 2 {
				return nil, fmt.Errorf("crosscheck: line %d: malformed ds", lineNo)
			}
			r.DS = fields[1]
		case "alg":
			if len(fields) != 2 {
				return nil, fmt.Errorf("crosscheck: line %d: malformed alg", lineNo)
			}
			r.Alg = fields[1]
		case "model":
			if len(fields) != 2 || (fields[1] != string(compute.FS) && fields[1] != string(compute.INC)) {
				return nil, fmt.Errorf("crosscheck: line %d: malformed model", lineNo)
			}
			r.Model = compute.Model(fields[1])
		case "source":
			if len(fields) != 2 {
				return nil, fmt.Errorf("crosscheck: line %d: malformed source", lineNo)
			}
			var src uint64
			src, err = strconv.ParseUint(fields[1], 10, 32)
			r.Source = graph.NodeID(src)
		case "batch":
			inStream = true
			r.Stream = append(r.Stream, Step{})
		case "add", "del":
			if !inStream {
				return nil, fmt.Errorf("crosscheck: line %d: %s before first batch", lineNo, key)
			}
			var e graph.Edge
			e, err = parseEdge(fields)
			if err == nil {
				step := &r.Stream[len(r.Stream)-1]
				if key == "add" {
					step.Adds = append(step.Adds, e)
				} else {
					step.Dels = append(step.Dels, e)
				}
			}
		default:
			return nil, fmt.Errorf("crosscheck: line %d: unknown directive %q", lineNo, key)
		}
		if err != nil {
			return nil, fmt.Errorf("crosscheck: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("crosscheck: %w", err)
	}
	if r.DS == "" {
		return nil, fmt.Errorf("crosscheck: repro names no data structure")
	}
	r.Note = strings.Join(noteLines, "\n")
	return r, nil
}

// ReadReproFile parses the repro at path.
func ReadReproFile(path string) (*Repro, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseRepro(f)
}
