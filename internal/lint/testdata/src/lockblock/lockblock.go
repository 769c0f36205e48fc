// Package lockblock exercises lock-held-across-blocking: a mutex provably
// held at a blocking operation — file I/O, fsync, a channel op — directly
// or through a call whose callee blocks transitively.
package lockblock

import (
	"os"
	"sync"
)

// Store guards a file handle and a channel with one mutex.
type Store struct {
	mu sync.Mutex
	f  *os.File
	ch chan int
}

// BadSync fsyncs while holding the store mutex.
func (s *Store) BadSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want "lock-held-across-blocking: os.File.Sync while holding lockblock.Store.mu"
}

// BadSend sends on a channel while holding the mutex.
func (s *Store) BadSend(v int) {
	s.mu.Lock()
	s.ch <- v // want "lock-held-across-blocking: channel send while holding lockblock.Store.mu"
	s.mu.Unlock()
}

// BadRecv receives while holding the mutex.
func (s *Store) BadRecv() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "lock-held-across-blocking: channel receive while holding lockblock.Store.mu"
}

// flush hides the fsync one call away.
func (s *Store) flush() error { return s.f.Sync() }

// BadTransitive blocks through the helper with the lock held; the witness
// chain names the path to the fsync.
func (s *Store) BadTransitive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush() // want "lock-held-across-blocking: call to lockblock..{1,2}Store..flush blocks"
}

// Clean releases before the fsync.
func (s *Store) Clean() error {
	s.mu.Lock()
	s.mu.Unlock()
	return s.f.Sync()
}

// Ignored fsyncs under the lock but documents why that is the design.
func (s *Store) Ignored() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() //gptlint:ignore lock-held-across-blocking corpus: the handle is serialized by this mutex by design
}

// Log is Store's marked twin: its mutex exists to serialize the file handle,
// and says so where it is declared instead of at every I/O call.
type Log struct {
	//gptlint:serializes-io corpus: write-then-fsync is one critical section by design
	mu sync.Mutex
	f  *os.File
}

// Sync is BadSync under the marked lock: clean.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

func (l *Log) flush() error { return l.f.Sync() }

// Transitive is BadTransitive under the marked lock: clean.
func (l *Log) Transitive() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flush()
}

// Both holds an unmarked lock as well: the marker speaks only for its own
// mutex, so the finding stands and names both.
func Both(s *Store, l *Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync() // want "lock-held-across-blocking: os.File.Sync while holding lockblock.Store.mu .*lockblock.Log.mu"
}

// Markers carries the three ways a marker goes wrong: no reason, not on a
// mutex, and on a mutex that is never held at a blocking operation.
type Markers struct {
	a sync.Mutex //gptlint:serializes-io // want "bad-ignore: serializes-io marker has no reason"
	//gptlint:serializes-io corpus: a counter is not a lock // want "bad-ignore: serializes-io marker is not on a .single. sync.Mutex/RWMutex field"
	n int
	//gptlint:serializes-io corpus: nothing blocks under this one // want "unused-ignore: gptlint:serializes-io on lockblock.Markers.c suppresses nothing"
	c sync.RWMutex
}

// Touch holds each Markers lock without blocking.
func (m *Markers) Touch() int {
	m.a.Lock()
	m.n++
	m.a.Unlock()
	m.c.RLock()
	defer m.c.RUnlock()
	return m.n
}
