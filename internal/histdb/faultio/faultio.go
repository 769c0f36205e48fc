// Package faultio provides a fault-injecting wrapper for the history
// database's log file, used to prove the WAL's crash-recovery guarantees:
// it cuts a write short after a configurable byte budget (simulating a
// crash or full disk mid-append) and fails every operation afterwards, the
// way a dead process's file descriptor would; or it takes every write and
// fails every fsync, the way a disk that cannot make bytes durable does.
package faultio

import (
	"errors"
	"math"
	"sync"

	"repro/internal/histdb"
)

// ErrInjected is returned by every operation after the byte budget is
// exhausted, and by every Sync of a NewSyncFailer file.
var ErrInjected = errors.New("faultio: injected failure")

// Injector builds wrapped files that collectively fail after FailAfter
// bytes have been written through them. A FailAfter that lands mid-record
// produces exactly the torn-tail condition WAL recovery must handle.
type Injector struct {
	//gptlint:serializes-io the byte budget must decrement atomically with the write it meters, and the short write that exhausts it with tripping the injector
	mu         sync.Mutex
	remaining  int64
	tripped    bool // the byte budget ran out
	failSync   bool // every Sync fails (NewSyncFailer)
	syncFailed bool // a Sync has failed under failSync
}

// NewInjector returns an injector that allows failAfter bytes through
// before failing.
func NewInjector(failAfter int64) *Injector {
	return &Injector{remaining: failAfter}
}

// NewSyncFailer returns an injector whose files take every write and fail
// every Sync: the bytes may reach the page cache, but no fsync ever
// confirms them durable.
func NewSyncFailer() *Injector {
	return &Injector{remaining: math.MaxInt64, failSync: true}
}

// Tripped reports whether the fault has fired.
func (in *Injector) Tripped() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tripped || in.syncFailed
}

// Wrap is the histdb.WALOptions.WrapFile hook.
func (in *Injector) Wrap(f histdb.File) histdb.File {
	return &file{in: in, f: f}
}

type file struct {
	in *Injector
	f  histdb.File
}

// Write passes through until the budget runs out, then performs the short
// write that exhausts it (bytes really reach the underlying file, as they
// would in a crash) and fails.
func (w *file) Write(p []byte) (int, error) {
	w.in.mu.Lock()
	defer w.in.mu.Unlock()
	if w.in.tripped {
		return 0, ErrInjected
	}
	if int64(len(p)) <= w.in.remaining {
		w.in.remaining -= int64(len(p))
		return w.f.Write(p)
	}
	w.in.tripped = true
	n := int(w.in.remaining)
	w.in.remaining = 0
	if n > 0 {
		if m, err := w.f.Write(p[:n]); err != nil {
			return m, err
		}
	}
	return n, ErrInjected
}

// Sync fails always under NewSyncFailer, and otherwise once the write fault
// has fired (a crashed process never reaches its fsync); before that it
// passes through.
func (w *file) Sync() error {
	w.in.mu.Lock()
	w.in.syncFailed = w.in.failSync
	fail := w.in.failSync || w.in.tripped
	w.in.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return w.f.Sync()
}

// Close always closes the underlying file so tests do not leak descriptors.
func (w *file) Close() error {
	err := w.f.Close()
	if w.in.Tripped() {
		return ErrInjected
	}
	return err
}
