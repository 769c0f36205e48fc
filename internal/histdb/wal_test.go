package histdb

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func walRecord(i int) Record {
	return Record{
		Problem: "p",
		Task:    []float64{1},
		Config:  []float64{float64(i)},
		Outputs: []float64{float64(100 - i)},
		Stamp:   time.Unix(int64(i), 0).UTC(),
	}
}

// loaded reads the records at base back from disk — an open WAL keeps none.
func loaded(t *testing.T, base string) []Record {
	t.Helper()
	db, err := Load(base)
	if err != nil {
		t.Fatal(err)
	}
	return db.Records()
}

func TestWALRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything recovered from the log alone (no snapshot yet), and
	// handed to the caller that asks for it.
	w2, recs, err := OpenWALRecords(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 5 || len(recs) != 5 {
		t.Fatalf("recovered %d records (%d returned), want 5", w2.Len(), len(recs))
	}
	for i, r := range recs {
		if r.Config[0] != float64(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}

	// Plain Load must replay the sidecar log too.
	db, err := Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 5 {
		t.Fatalf("Load saw %d records, want 5", db.Len())
	}
}

func TestWALTornTailRecovered(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(WalPath(base), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"problem":"p","task":[1],"conf`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := Verify(base)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	if res.TornBytes == 0 || res.LogRecords != 3 {
		t.Fatalf("verify = %+v", res)
	}

	w2, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 3 {
		t.Fatalf("recovered %d records, want 3", w2.Len())
	}
	// The torn tail must be physically gone so new appends start clean.
	if err := w2.Append(walRecord(9)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	res, err = Verify(base)
	if err != nil || res.TornBytes != 0 || res.LogRecords != 4 {
		t.Fatalf("after recovery verify = %+v, %v", res, err)
	}
}

func TestWALCorruptMiddleLineErrors(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// A newline-terminated garbage line followed by a valid record is
	// corruption, not a torn append.
	f, err := os.OpenFile(WalPath(base), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(walRecord(1))
	if _, err := f.WriteString("{broken}\n" + string(line) + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Verify(base); err == nil {
		t.Fatal("corrupt middle line not reported")
	}
	if _, err := OpenWAL(base, WALOptions{}); err == nil {
		t.Fatal("corrupt middle line accepted by OpenWAL")
	}
}

func TestWALCompact(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotRecords != 4 || res.LogRecords != 0 {
		t.Fatalf("after compact: %+v", res)
	}
	// Appends continue on the fresh log.
	if err := w.Append(walRecord(4)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 5 {
		t.Fatalf("after compact+append reopen: %d records, want 5", w2.Len())
	}
}

// TestWALCompactCrashWindow simulates a crash between the snapshot rewrite
// and the log swap: the snapshot already holds every record but the old log
// still lists the tail. Recovery must not replay those records twice.
func TestWALCompactCrashWindow(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	oldLog, err := os.ReadFile(WalPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Undo the log swap, leaving the post-compaction snapshot with the
	// pre-compaction log — exactly the crash-window state.
	if err := os.WriteFile(WalPath(base), oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotRecords != 3 || res.LogRecords != 0 || res.SkippedRecords != 3 {
		t.Fatalf("crash-window verify = %+v", res)
	}
	w2, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 3 {
		t.Fatalf("crash-window recovery duplicated records: %d, want 3", w2.Len())
	}
}

// syncCounter counts fsyncs to observe the group-commit policy.
type syncCounter struct {
	f     File
	syncs int
}

func (s *syncCounter) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *syncCounter) Sync() error                 { s.syncs++; return s.f.Sync() }
func (s *syncCounter) Close() error                { return s.f.Close() }

func TestWALGroupCommit(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	var sc *syncCounter
	w, err := OpenWAL(base, WALOptions{
		GroupCommit: 4,
		WrapFile:    func(f File) File { sc = &syncCounter{f: f}; return sc },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sc.syncs != 2 {
		t.Fatalf("8 appends at GroupCommit=4: %d syncs, want 2", sc.syncs)
	}
	if err := w.Append(walRecord(8)); err != nil {
		t.Fatal(err)
	}
	// Close flushes the open group.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 3 {
		t.Fatalf("Close did not flush the open group: %d syncs, want 3", sc.syncs)
	}
	// Close with nothing pending adds no sync.
	w, err = OpenWAL(base, WALOptions{
		GroupCommit: 4,
		WrapFile:    func(f File) File { sc = &syncCounter{f: f}; return sc },
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 9 {
		t.Fatalf("reopened log holds %d records, want 9", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 0 {
		t.Fatalf("Close with empty group synced: %d, want 0", sc.syncs)
	}
}

func TestWALTornHeaderStartsFresh(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	if err := os.WriteFile(WalPath(base), []byte(`{"wal":1,"snapshot`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Len() != 0 {
		t.Fatalf("torn header yielded %d records", w.Len())
	}
	if err := w.Append(walRecord(0)); err != nil {
		t.Fatal(err)
	}
}

func TestWALClockStampsRecords(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	fixed := time.Unix(12345, 0).UTC()
	w, err := OpenWAL(base, WALOptions{Clock: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Problem: "p", Outputs: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if got := loaded(t, base)[0].Stamp; !got.Equal(fixed) {
		t.Fatalf("stamp = %v, want %v", got, fixed)
	}
}

// TestWALNilClockDefaultsToWallClock pins the clock seam: a nil
// WALOptions.Clock is defaulted once at OpenWAL, so zero-stamp records are
// still stamped even though Append itself never reads time.Now.
func TestWALNilClockDefaultsToWallClock(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	before := time.Now().Add(-time.Second)
	if err := w.Append(Record{Problem: "p", Outputs: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got := loaded(t, base)[0].Stamp
	if got.IsZero() || got.Before(before) {
		t.Fatalf("nil-clock stamp = %v, want a recent wall-clock time", got)
	}
}

// TestWALExport: Export must flush group-commit buffers, hand back bytes
// that OpenWAL recovers into the identical record set, and the snapshot/log
// pair must stay mutually consistent across a Compact.
func TestWALExport(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{GroupCommit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if err := w.Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, log, err := w.Export()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("no compaction ran yet but Export returned a %d-byte snapshot", len(snap))
	}

	// Materialize the export elsewhere and recover it.
	restore := func(snap, log []byte) (*WAL, string) {
		dir := t.TempDir()
		dst := filepath.Join(dir, "hist.json")
		if snap != nil {
			if err := os.WriteFile(dst, snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(dst+".wal", log, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(dst, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return w2, dst
	}
	w2, dst := restore(snap, log)
	defer w2.Close()
	if w2.Len() != 5 {
		t.Fatalf("restored export has %d records, want 5", w2.Len())
	}
	a, _ := json.Marshal(loaded(t, base))
	b, _ := json.Marshal(loaded(t, dst))
	if string(a) != string(b) {
		t.Fatal("restored records differ from the source")
	}

	// After Compact the snapshot carries everything and the log is empty.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(5)); err != nil {
		t.Fatal(err)
	}
	snap, log, err = w.Export()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("Export after Compact returned no snapshot")
	}
	w3, _ := restore(snap, log)
	defer w3.Close()
	if w3.Len() != 6 {
		t.Fatalf("restored post-compact export has %d records, want 6", w3.Len())
	}
}

// TestWALClosedOps: operations on a closed WAL fail with ErrClosed instead
// of dereferencing the nil file handle — the forced-drain shutdown path
// depends on this.
func TestWALClosedOps(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	w, err := OpenWAL(base, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(1)); err != ErrClosed {
		t.Fatalf("Append after Close: got %v, want ErrClosed", err)
	}
	if err := w.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close: got %v, want ErrClosed", err)
	}
	if _, _, err := w.Export(); err != ErrClosed {
		t.Fatalf("Export after Close: got %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: got %v, want nil", err)
	}
}
