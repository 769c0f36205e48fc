// Package span is the benchmark's tracer: spans are recorded by benchmark
// code around its calls into each layer (never inside the program under
// test), kept in memory, and written out with a self-time roll-up when the
// run ends.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the index of the span that caused
// it (-1 for a root); ID ties together the spans of one study or
// evaluation.
type Span struct {
	Name    string `json:"name"`
	ID      string `json:"id,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder is the tracing-off state: every
// method is a no-op, so timed runs pay one nil check per call site. Safe
// for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// New returns an empty recorder whose timestamps count from now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its index (the handle End and child spans
// refer to), or -1 on a nil recorder.
func (r *Recorder) Start(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, StartNs: now, EndNs: now})
	h := len(r.spans) - 1
	r.mu.Unlock()
	return h
}

// End closes the span opened by Start.
func (r *Recorder) End(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[h].EndNs = now
	r.mu.Unlock()
}

// Add records a span whose interval the caller measured itself (for
// example a phase duration reported by the layer), placed at start.
func (r *Recorder) Add(name, id string, parent int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, StartNs: s, EndNs: s + d.Nanoseconds()})
	h := len(r.spans) - 1
	r.mu.Unlock()
	return h
}

// Len returns how many spans have been recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Roll is one span name's aggregate: how many spans, their summed duration,
// and their summed self time.
type Roll struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	selfNs  int64
	totalNs int64
}

// RollUp aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its child spans cover (overlapping children
// are counted once, and a child is clipped to its parent's interval).
func RollUp(spans []Span) []Roll {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*Roll)
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &Roll{Name: s.Name}
			byName[s.Name] = r
		}
		dur := s.EndNs - s.StartNs
		r.Count++
		r.totalNs += dur
		r.selfNs += dur - covered(s, spans, children[i])
	}
	out := make([]Roll, 0, len(byName))
	for _, r := range byName {
		r.TotalS = float64(r.totalNs) / 1e9
		r.SelfS = float64(r.selfNs) / 1e9
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the given child spans covers.
func covered(parent Span, spans []Span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].StartNs, spans[k].EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartNs
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		total += v.hi - v.lo
		end = v.hi
	}
	return total
}

// File is the on-disk form of one traced run.
type File struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	RollUp   []Roll `json:"roll_up"`
	Spans    []Span `json:"spans"`
}

// WriteFile writes the recorder's spans and their roll-up to path.
func (r *Recorder) WriteFile(path, workload string, seed int64) error {
	spans := r.Spans()
	data, err := json.Marshal(File{Workload: workload, Seed: seed, RollUp: RollUp(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
