package faultio_test

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/histdb"
	"repro/internal/histdb/faultio"
)

func record(i int) histdb.Record {
	return histdb.Record{
		Problem: "p",
		Task:    []float64{1},
		Config:  []float64{float64(i)},
		Outputs: []float64{float64(100 - i)},
		Stamp:   time.Unix(int64(i), 0).UTC(),
	}
}

func lineLen(t *testing.T, i int) int64 {
	t.Helper()
	b, err := json.Marshal(record(i))
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b)) + 1 // + newline
}

// TestCrashMidRecordLosesOnlyInFlight cuts the write of the third record
// short, proving the WAL's core guarantee: every fully-appended record
// survives, the torn half-record is discarded on recovery, and the log
// verifies as recoverable both before and after.
func TestCrashMidRecordLosesOnlyInFlight(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	// Budget: two whole records plus half of the third.
	budget := lineLen(t, 0) + lineLen(t, 1) + lineLen(t, 2)/2
	inj := faultio.NewInjector(budget)
	w, err := histdb.OpenWAL(base, histdb.WALOptions{WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}

	appended := 0
	var appendErr error
	for i := 0; i < 10; i++ {
		if appendErr = w.Append(record(i)); appendErr != nil {
			break
		}
		appended++
	}
	if appendErr == nil || appended != 2 {
		t.Fatalf("crash not injected where expected: %d appends, err %v", appended, appendErr)
	}
	if !inj.Tripped() {
		t.Fatal("injector never fired")
	}
	// The log is poisoned: later appends fail instead of writing after a
	// torn record.
	if err := w.Append(record(9)); err == nil {
		t.Fatal("append after failure must not succeed")
	}
	w.Close()

	res, err := histdb.Verify(base)
	if err != nil {
		t.Fatalf("crashed log must verify as recoverable: %v", err)
	}
	if res.LogRecords != appended || res.TornBytes == 0 {
		t.Fatalf("verify = %+v, want %d records and a torn tail", res, appended)
	}

	// Recovery: exactly the fully-appended records, and the database is
	// writable again.
	w2, recs, err := histdb.OpenWALRecords(base, histdb.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != appended || len(recs) != appended {
		t.Fatalf("recovered %d records (%d returned), want %d", w2.Len(), len(recs), appended)
	}
	for i, r := range recs {
		if r.Config[0] != float64(i) {
			t.Fatalf("record %d corrupted by recovery: %+v", i, r)
		}
	}
	if err := w2.Append(record(7)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = histdb.Verify(base)
	if err != nil || res.TornBytes != 0 || res.LogRecords != appended+1 {
		t.Fatalf("post-recovery verify = %+v, %v", res, err)
	}
}

// TestCrashAtRecordBoundary exhausts the budget exactly at a newline: no
// torn bytes, and recovery sees every record whose write completed.
func TestCrashAtRecordBoundary(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	budget := lineLen(t, 0) + lineLen(t, 1)
	inj := faultio.NewInjector(budget)
	w, err := histdb.OpenWAL(base, histdb.WALOptions{WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 10; i++ {
		if err := w.Append(record(i)); err != nil {
			break
		}
		appended++
	}
	w.Close()
	if appended != 2 {
		t.Fatalf("appended = %d, want 2", appended)
	}
	res, err := histdb.Verify(base)
	if err != nil || res.TornBytes != 0 || res.LogRecords != 2 {
		t.Fatalf("verify = %+v, %v", res, err)
	}
}

// TestCrashInsideGroupCommitWindow: with group commit, records written but
// not yet fsync'd are still recoverable when the OS flushed them (the usual
// case); the guarantee that matters is that recovery never yields a record
// that was not fully appended.
func TestCrashInsideGroupCommitWindow(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	budget := lineLen(t, 0) + lineLen(t, 1) + lineLen(t, 2) + 3
	inj := faultio.NewInjector(budget)
	w, err := histdb.OpenWAL(base, histdb.WALOptions{GroupCommit: 8, WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 10; i++ {
		if err := w.Append(record(i)); err != nil {
			break
		}
		appended++
	}
	w.Close()
	if appended != 3 {
		t.Fatalf("appended = %d, want 3", appended)
	}
	w2, err := histdb.OpenWAL(base, histdb.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() > appended {
		t.Fatalf("recovery invented records: %d > %d", w2.Len(), appended)
	}
}

// TestFailedSyncPoisonsLog: the disk takes a record's bytes but its fsync
// fails. The append fails, the record is not counted, and the log is
// poisoned: later appends fail instead of building on a record whose
// durability is unknown.
func TestFailedSyncPoisonsLog(t *testing.T) {
	base := filepath.Join(t.TempDir(), "hist.json")
	inj := faultio.NewSyncFailer()
	w, err := histdb.OpenWAL(base, histdb.WALOptions{WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(record(0)); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append over a failing fsync returned %v, want the injected failure", err)
	}
	if !inj.Tripped() {
		t.Fatal("injector never fired")
	}
	if err := w.Append(record(1)); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append after a failed fsync returned %v, want the poisoned log's injected failure", err)
	}
	if n := w.Len(); n != 0 {
		t.Fatalf("Len = %d after a failed fsync, want 0", n)
	}
}
