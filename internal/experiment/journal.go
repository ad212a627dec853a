package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Artifact file names inside an experiment directory.
const (
	// SpecFile records the normalized Spec; resume refuses a mismatch.
	SpecFile = "spec.json"
	// JournalFile holds one JSON line per completed (point, rep) task.
	JournalFile = "journal.jsonl"
	// ResultsJSONL holds one PointSummary per line.
	ResultsJSONL = "results.jsonl"
	// ResultsCSV holds one (point, metric) row per line.
	ResultsCSV = "results.csv"
)

// journalEntry is one completed task. Either Metrics or Error is set.
// Metrics round-trip exactly through JSON (Go emits the shortest float64
// representation that parses back to the same value), which is what makes
// resumed summaries byte-identical to uninterrupted ones.
type journalEntry struct {
	Point   int     `json:"point"`
	Rep     int     `json:"rep"`
	Seed    uint64  `json:"seed"`
	Metrics Metrics `json:"metrics,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// journal is the append-only task log of one experiment directory.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	entries []journalEntry
}

// openJournal prepares dir for the given normalized spec: it creates the
// directory, writes spec.json on first use (and verifies it on reuse), and
// loads any previously journaled entries.
func openJournal(dir string, spec Spec) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: creating %s: %w", dir, err)
	}
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	if prevSpec, err := readSpec(dir); err == nil {
		have, err := json.MarshalIndent(prevSpec, "", "  ")
		if err != nil {
			return nil, err
		}
		if string(have) != string(want) {
			return nil, fmt.Errorf("experiment: %s holds a different experiment (spec mismatch); use a fresh directory", dir)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(filepath.Join(dir, SpecFile), append(want, '\n'), 0o644); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: reading %s: %w", path, err)
	}
	// A torn final line from a hard kill is not an error: the task simply
	// reruns (same seed, same metrics) and re-journals. Cut it off first,
	// or the re-journaled line would land on it and be lost again.
	keep := bytes.LastIndexByte(raw, '\n') + 1
	if keep < len(raw) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, err
		}
	}
	j := &journal{f: f}
	for _, line := range bytes.Split(raw[:keep], []byte{'\n'}) {
		if e, ok := decodeEntry(line); ok {
			j.entries = append(j.entries, e)
		}
	}
	return j, nil
}

// decodeEntry decodes one journal line. The line counts only if it decodes
// as a journalEntry that names its point, rep and seed. Any other line is
// skipped, like a torn one: a `null` or `{}` line would otherwise become
// task (0, 0) with seed 0, and its seed check would refuse the whole
// directory.
func decodeEntry(line []byte) (journalEntry, bool) {
	var e journalEntry
	var has struct {
		Point *int    `json:"point"`
		Rep   *int    `json:"rep"`
		Seed  *uint64 `json:"seed"`
	}
	if json.Unmarshal(line, &e) != nil || json.Unmarshal(line, &has) != nil {
		return e, false
	}
	return e, has.Point != nil && has.Rep != nil && has.Seed != nil
}

// append journals one completed task. Lines are written whole and synced so
// an interrupt loses at most the in-flight tasks.
func (j *journal) append(e journalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// LoadSpec reads the Spec recorded in an experiment directory, for
// `sops resume`.
func LoadSpec(dir string) (Spec, error) {
	spec, err := readSpec(dir)
	if errors.Is(err, os.ErrNotExist) {
		return Spec{}, fmt.Errorf("experiment: %s is not an experiment directory: %w", dir, err)
	}
	return spec, err
}

// readSpec decodes the spec.json of dir. A field this binary does not know
// is an error, not dropped: a resume would otherwise run the remaining
// tasks as a different experiment than the journaled ones.
func readSpec(dir string) (Spec, error) {
	path := filepath.Join(dir, SpecFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("experiment: %s: %w", path, err)
	}
	return spec, nil
}
