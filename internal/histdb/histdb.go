// Package histdb implements GPTune's history database (the paper's goal #3:
// "support archiving and reusing tuning data from multiple executions to
// allow tuning to improve over time"). Records are stored as JSON on disk;
// prior records for a problem can seed a new MLA run's dataset, and
// databases from separate runs can be merged.
package histdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one completed function evaluation.
type Record struct {
	Problem string    `json:"problem"`
	Task    []float64 `json:"task"`
	Config  []float64 `json:"config"`
	Outputs []float64 `json:"outputs"`
	Stamp   time.Time `json:"stamp"`

	// Phase tags which tuning phase produced the evaluation ("init",
	// "search", "mo"); empty for records archived outside a checkpointed
	// run.
	Phase string `json:"phase,omitempty"`
	// Requested is the configuration the tuner originally asked the
	// objective to evaluate. It differs from Config only when the
	// objective failed and a retry substituted a fresh feasible point;
	// checkpoint replay keys on it to skip already-paid evaluations.
	Requested []float64 `json:"requested,omitempty"`

	// Kind distinguishes record types. Empty (the overwhelmingly common
	// case, and everything written before surrogate snapshots existed) is a
	// function evaluation; KindModel is a fitted-surrogate snapshot, which
	// carries Surrogate/Objective/Snapshot instead of Task/Config/Outputs.
	// Consumers that iterate evaluations must skip records with a non-empty
	// Kind.
	Kind string `json:"kind,omitempty"`
	// Surrogate is the backend that produced a model record's snapshot
	// (one of surrogate.Kinds()).
	Surrogate string `json:"surrogate,omitempty"`
	// Objective is the objective index a model record's surrogate modeled
	// (always 0 for single-objective runs).
	Objective int `json:"objective,omitempty"`
	// Snapshot is the serialized fitted model (base64 in the JSON encoding).
	Snapshot []byte `json:"snapshot,omitempty"`
}

// KindModel marks a record holding a fitted-surrogate snapshot rather than a
// function evaluation. A tuning run checkpointing through the WAL appends
// one after each modeling phase; a later session loads the last one per
// objective as a hyperparameter warm start (transfer learning across runs).
const KindModel = "model"

// IsEval reports whether the record is a plain function evaluation.
func (r *Record) IsEval() bool { return r.Kind == "" }

// DB is an in-memory history database with JSON persistence.
type DB struct {
	mu      sync.Mutex
	records []Record
}

// New returns an empty database.
func New() *DB { return &DB{} }

// Load reads a database from path. A missing file yields an empty database.
// When a sidecar write-ahead log (path + ".wal") exists, its records are
// replayed on top of the snapshot (read-only; the log is not modified), so
// evaluations streamed by a checkpointed run are visible without compaction.
func Load(path string) (*DB, error) {
	p, err := readPair(path)
	if err != nil {
		return nil, err
	}
	return &DB{records: p.records}, nil
}

// loadSnapshot reads the JSON-array snapshot file alone (missing = empty).
func loadSnapshot(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var records []Record
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("histdb: parsing %s: %w", path, err)
	}
	return records, nil
}

// tmpCounter disambiguates concurrent temp files within one process; the
// PID disambiguates across processes sharing a directory.
var tmpCounter atomic.Int64

func tmpPath(path string) string {
	return fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpCounter.Add(1))
}

// WriteFileDurable writes data to path via a unique temp file, fsyncs the
// temp file before the atomic rename, and fsyncs the parent directory after
// it, so a crash at any point leaves either the old or the new content —
// never a torn file, and never a rename that a power loss can undo. Exported
// for callers that persist their own metadata next to a history database —
// the tuning service stores each study's specification this way, so a
// restart always rebuilds the exact engine whose WAL it replays.
func WriteFileDurable(path string, data []byte) error {
	tmp := tmpPath(path)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save writes the database snapshot to path atomically and durably (unique
// temp file + fsync + rename + directory fsync, safe under concurrent Saves
// to the same path).
func (db *DB) Save(path string) error {
	db.mu.Lock()
	data, err := json.MarshalIndent(db.records, "", " ")
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return WriteFileDurable(path, data)
}

// Append adds one record, stamped now if its Stamp is zero.
func (db *DB) Append(r Record) {
	if r.Stamp.IsZero() {
		r.Stamp = time.Now().UTC()
	}
	db.mu.Lock()
	db.records = append(db.records, r)
	db.mu.Unlock()
}

// Records returns a copy of every record, in insertion order.
func (db *DB) Records() []Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]Record(nil), db.records...)
}

// Len returns the record count.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.records)
}

// Query returns the records for a problem ("" matches every problem); when
// task is non-nil, only records with exactly matching task parameters.
func (db *DB) Query(problem string, task []float64) []Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Record
	for _, r := range db.records {
		if problem != "" && r.Problem != problem {
			continue
		}
		if task != nil && !equalVec(r.Task, task) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Tasks returns the distinct task vectors recorded for a problem.
func (db *DB) Tasks(problem string) [][]float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [][]float64
	for _, r := range db.records {
		if r.Problem != problem || !r.IsEval() {
			continue
		}
		dup := false
		for _, t := range out {
			if equalVec(t, r.Task) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r.Task)
		}
	}
	return out
}

// Merge copies every record of other into db.
func (db *DB) Merge(other *DB) {
	other.mu.Lock()
	records := append([]Record(nil), other.records...)
	other.mu.Unlock()
	db.mu.Lock()
	db.records = append(db.records, records...)
	db.mu.Unlock()
}

// Best returns the record minimizing outputs[0] for the given problem/task,
// or false when no record with outputs exists. Output-less records (e.g.
// placeholders from partial archives) are never chosen as the incumbent.
func (db *DB) Best(problem string, task []float64) (Record, bool) {
	var best Record
	found := false
	for _, r := range db.Query(problem, task) {
		if len(r.Outputs) == 0 {
			continue
		}
		if !found || r.Outputs[0] < best.Outputs[0] {
			best = r
			found = true
		}
	}
	return best, found
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
