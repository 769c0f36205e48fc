// Write-ahead logging for the history database. A WAL-backed database at
// path `base` is a pair of files:
//
//	base        — snapshot: a JSON array of Records (the legacy Save format)
//	base.wal    — append-only log: a JSON header line, then one JSON Record
//	              per line, each appended (and by default fsync'd) as the
//	              evaluation completes
//
// The header records how many snapshot records the log extends
// ({"wal":1,"snapshot_len":N}), which makes compaction crash-safe without
// record identity: Compact first durably rewrites the snapshot with all M
// records, then atomically swaps in a fresh log whose header says M. A crash
// between the two steps leaves a snapshot of M records and the old log
// (header N, M−N records); recovery skips the first M−N log records as
// already folded into the snapshot.
//
// Recovery tolerates a torn final append: any bytes after the last newline
// are discarded (at most the in-flight record is lost, because every
// complete record append ends in the newline). A newline-terminated line
// that fails to parse mid-log is real corruption and is reported as an
// error, not silently dropped.
package histdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Append/Compact/Export on a WAL whose Close
// has completed. It makes the shutdown race benign: a handler that commits
// after teardown gets a clean error instead of a nil-handle panic.
var ErrClosed = errors.New("histdb: WAL is closed")

// File is the subset of *os.File the WAL appends through. Tests substitute
// fault-injecting implementations (internal/histdb/faultio) to prove the
// recovery path.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// WALOptions configures a write-ahead-logged database.
type WALOptions struct {
	// GroupCommit fsyncs the log every N appends instead of every append
	// (N ≤ 1). Larger values amortize fsync cost at the price of losing up
	// to N−1 fully-written records (plus the in-flight one) on a crash.
	GroupCommit int
	// Clock stamps records whose Stamp is zero; nil is defaulted to the
	// wall clock once, at OpenWAL. Tuning code passes its injected
	// Options.Clock through here so that nothing in a deterministic run
	// reads time.Now directly — Append only ever calls this field.
	Clock func() time.Time
	// WrapFile, when non-nil, wraps the opened log file before any append
	// goes through it — the fault-injection seam.
	WrapFile func(File) File
}

// WAL is a history database whose appends stream to an fsync'd log, so a
// crash at any moment loses at most the record being written (times the
// group-commit window). All methods are safe for concurrent use.
// It is a log and nothing else — a handle, a record count and the poison
// error, never the records: OpenWALRecords hands its caller what recovery
// found, anyone else reads the files with Load.
type WAL struct {
	//gptlint:serializes-io the mutex exists to serialize the log handle: write-then-fsync, compaction's read-rewrite-swap and export's paired read are each one critical section
	mu      sync.Mutex
	base    string
	opts    WALOptions
	f       File
	n       atomic.Int64 // records in snapshot + log; read by Len without waiting out an fsync
	pending int          // appends since the last fsync
	broken  error        // sticky: a failed append poisons the log handle
}

// WalPath returns the log-file path paired with the snapshot at base — the
// naming contract importers need when materializing an exported WAL.
func WalPath(base string) string { return base + ".wal" }

// walHeader is the first line of every log file.
type walHeader struct {
	Wal         int `json:"wal"`
	SnapshotLen int `json:"snapshot_len"`
}

// OpenWAL opens (creating if needed) the WAL-backed database at base,
// recovering the snapshot + log pair: a torn final log line is truncated
// away, and log records already folded into the snapshot by an interrupted
// compaction are skipped.
func OpenWAL(base string, opts WALOptions) (*WAL, error) {
	w, _, err := OpenWALRecords(base, opts)
	return w, err
}

// OpenWALRecords is OpenWAL for a caller that replays the log: it also
// returns every record recovery found, snapshot first, parsed once. The WAL
// keeps none of them — the slice is the caller's.
func OpenWALRecords(base string, opts WALOptions) (*WAL, []Record, error) {
	if opts.GroupCommit < 1 {
		opts.GroupCommit = 1
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	rec, err := readPair(base)
	if err != nil {
		return nil, nil, err
	}
	if rec.TornBytes > 0 {
		if err := os.Truncate(WalPath(base), rec.goodSize); err != nil {
			return nil, nil, fmt.Errorf("histdb: truncating torn log tail: %w", err)
		}
	}
	w := &WAL{base: base, opts: opts}
	w.n.Store(int64(len(rec.records)))
	if rec.hasHeader {
		err = w.reopen()
	} else {
		// Fresh (or fully-torn) log: write the header durably before any
		// record can reference it.
		err = w.writeFreshLog(rec.SnapshotRecords)
	}
	if err != nil {
		return nil, nil, err
	}
	return w, rec.records, nil
}

// writeFreshLog atomically installs a new log containing only a header that
// extends a snapshot of snapLen records, and points w.f at it.
// Caller holds w.mu (or has exclusive access during open).
func (w *WAL) writeFreshLog(snapLen int) error {
	hdr, err := json.Marshal(walHeader{Wal: 1, SnapshotLen: snapLen})
	if err != nil {
		return err
	}
	if err := WriteFileDurable(WalPath(w.base), append(hdr, '\n')); err != nil {
		return err
	}
	return w.reopen()
}

// reopen points w.f at the log file as it now is. Same locking as
// writeFreshLog.
func (w *WAL) reopen() error {
	f, err := os.OpenFile(WalPath(w.base), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close() // old handle points at the unlinked previous log
	}
	w.f = f
	if w.opts.WrapFile != nil {
		w.f = w.opts.WrapFile(f)
	}
	w.pending = 0
	return nil
}

// Append durably adds one record: it is written to the log (fsync'd per the
// group-commit policy) before it is counted. A write error poisons the WAL —
// every later Append fails with the same error — because a partially-written
// line must be recovered by reopening.
func (w *WAL) Append(r Record) error {
	if r.Stamp.IsZero() {
		r.Stamp = w.opts.Clock().UTC()
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if w.broken != nil {
		return fmt.Errorf("histdb: log poisoned by earlier append failure: %w", w.broken)
	}
	if _, err := w.f.Write(line); err != nil {
		w.broken = err
		return err
	}
	w.pending++
	if w.pending >= w.opts.GroupCommit {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.n.Add(1)
	return nil
}

// flush fsyncs the appends group commit has buffered; a failed fsync poisons
// the log like a failed write. Caller holds w.mu.
func (w *WAL) flush() error {
	if w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return err
	}
	w.pending = 0
	return nil
}

// Compact folds the log into the snapshot: the pair is re-read under the
// mutex (the WAL keeps no records, and no append can interleave), the full
// record set is durably rewritten to the snapshot file, then an empty log
// (header only) atomically replaces the old one. Crash-safe at every step —
// recovery after an interrupted compaction skips the already-folded records.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if w.broken != nil {
		return w.broken
	}
	rec, err := readPair(w.base)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec.records, "", " ")
	if err != nil {
		return err
	}
	if err := WriteFileDurable(w.base, data); err != nil {
		return err
	}
	return w.writeFreshLog(len(rec.records))
}

// Export returns a consistent byte-for-byte copy of the snapshot and log
// files: pending group-commit appends are fsync'd first, then both files are
// read in the same critical section so no append can interleave and no torn
// tail can be observed. The pair is exactly what OpenWAL recovers from — the
// study-migration transfer format. A missing snapshot file (nothing ever
// compacted) yields a nil snapshot slice.
func (w *WAL) Export() (snapshot, log []byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil, nil, ErrClosed
	}
	if w.broken != nil {
		return nil, nil, w.broken
	}
	if err := w.flush(); err != nil {
		return nil, nil, err
	}
	snapshot, err = os.ReadFile(w.base)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	log, err = os.ReadFile(WalPath(w.base))
	if err != nil {
		return nil, nil, err
	}
	return snapshot, log, nil
}

// Close flushes buffered appends and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.broken == nil {
		err = w.flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Len returns the total record count (snapshot + log).
func (w *WAL) Len() int { return int(w.n.Load()) }

// recovered is one reading of a snapshot + log pair: the counts Verify
// reports, plus what open needs to act on them.
type recovered struct {
	VerifyResult
	records   []Record // the snapshot's records, then the log records that extend them
	goodSize  int64    // bytes of the log's valid newline-terminated prefix
	hasHeader bool
}

// readPair is the one reader of the snapshot + log pair at base: Load,
// OpenWALRecords, Verify and Compact all see the files through it, so the
// recovery rules exist once. It modifies neither file.
func readPair(base string) (recovered, error) {
	snap, err := loadSnapshot(base)
	if err != nil {
		return recovered{}, err
	}
	return recoverWAL(WalPath(base), snap)
}

// recoverWAL scans the log at path on top of the snapshot's records. A
// missing file or a file whose header line is torn adds nothing, with
// hasHeader=false. A newline-terminated line that fails to parse is an
// error (real corruption, not a torn append).
func recoverWAL(path string, snap []Record) (recovered, error) {
	rec := recovered{records: snap}
	rec.SnapshotRecords = len(snap)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return rec, err
	}
	var hdr walHeader
	lineNo := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			rec.TornBytes = int64(len(data))
			break
		}
		line := data[:nl]
		lineNo++
		if lineNo == 1 {
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Wal != 1 || hdr.SnapshotLen < 0 {
				return rec, fmt.Errorf("histdb: %s: missing or invalid WAL header", path)
			}
			rec.hasHeader = true
		} else {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				return rec, fmt.Errorf("histdb: %s line %d: corrupt record: %w", path, lineNo, err)
			}
			rec.records = append(rec.records, r)
		}
		rec.goodSize += int64(nl) + 1
		data = data[nl+1:]
	}
	if !rec.hasHeader {
		// Only a torn header (or empty file): recover as a fresh log.
		return rec, nil
	}
	if hdr.SnapshotLen > len(snap) {
		return rec, fmt.Errorf("histdb: %s extends a snapshot of %d records but only %d are present — snapshot lost or rolled back",
			path, hdr.SnapshotLen, len(snap))
	}
	// Records the snapshot already contains (an interrupted compaction, or a
	// Save that folded a Load's view back in) are skipped, never replayed
	// twice.
	log := rec.records[len(snap):]
	rec.SkippedRecords = min(len(snap)-hdr.SnapshotLen, len(log))
	rec.LogRecords = len(log) - rec.SkippedRecords
	rec.records = append(rec.records[:len(snap)], log[rec.SkippedRecords:]...)
	return rec, nil
}

// VerifyResult reports the health of a WAL-backed database location.
type VerifyResult struct {
	SnapshotRecords int   // records in the snapshot file
	LogRecords      int   // records the log contributes after recovery
	SkippedRecords  int   // log records skipped as already in the snapshot
	TornBytes       int64 // trailing torn bytes a recovery would discard
}

// Verify checks the snapshot + log pair at base without modifying either
// file. A nil error means OpenWAL would recover everything except the
// reported torn tail.
func Verify(base string) (VerifyResult, error) {
	rec, err := readPair(base)
	return rec.VerifyResult, err
}
