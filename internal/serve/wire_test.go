package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the server's current responses")

// wireLog records raw HTTP exchanges against a handler: request line and
// body, then status, the two headers the protocol gives meaning to, and the
// response bytes exactly as the server wrote them.
type wireLog struct {
	t   *testing.T
	h   http.Handler
	buf bytes.Buffer
}

func (l *wireLog) do(method, path, body string) string {
	l.t.Helper()
	return l.exchange(method, path, body, true)
}

// statusOnly records an exchange whose error text names a Go type
// (encoding/json's UnmarshalTypeError) — an implementation detail, so the
// body is left unpinned.
func (l *wireLog) statusOnly(method, path, body string) {
	l.t.Helper()
	l.exchange(method, path, body, false)
}

func (l *wireLog) exchange(method, path, body string, pinBody bool) string {
	l.t.Helper()
	rr := httptest.NewRecorder()
	l.h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	out := rr.Body.String()
	fmt.Fprintf(&l.buf, "> %s %s %s\n< %d content-type=%q ", method, path, body, rr.Code, rr.Header().Get("Content-Type"))
	switch {
	case !pinBody:
		l.buf.WriteString("(body names a Go type; not pinned)\n")
	case strings.HasSuffix(out, "\n"):
		fmt.Fprintf(&l.buf, "retry-after=%q\n%s", rr.Header().Get("Retry-After"), out)
	default:
		fmt.Fprintf(&l.buf, "retry-after=%q\n%s<no trailing newline>\n", rr.Header().Get("Retry-After"), out)
	}
	return out
}

const wireSpec = `{"name":"w","task_params":[{"name":"t","kind":"real","lo":0,"hi":10}],` +
	`"tuning":[{"name":"x","kind":"real","lo":0,"hi":1},{"name":"n","kind":"integer","lo":1,"hi":64,"log":true},{"name":"c","kind":"categorical","categories":["a","b"]}],` +
	`"outputs":["y"],"tasks":[[0],[1.5]],"options":{"eps_tot":4,"seed":42,"workers":1}}`

// TestWireGolden pins the response bytes of every route — success bodies,
// {"done":true}, the 409 + Retry-After, and the 400/404/503 error bodies —
// against testdata/wire.golden, which was recorded from the commit before
// the protocol moved into gptune/api. Any byte of drift between the server
// and its recorded contract fails here. One line has been re-recorded since:
// the status read after the import reports the two logged observations (it
// said 0), because a read now replays an engine that is behind its log. And
// three when suggest stopped polling: the first ask of study "a" is answered
// with its suggestion (it was 409 + Retry-After), the 409 left — a wait the
// server cut short — says Retry-After "0" (it said "1"), and health bodies
// carry no "async". And every drawn value once, when the streams moved to
// internal/rng: the configurations in suggestions, retries, histories and
// the exported snapshot (so the import requests that carry it), with every
// status, header and error body unchanged.
func TestWireGolden(t *testing.T) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s, err := serve.NewServer(serve.Config{DataDir: t.TempDir(), Clock: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := &wireLog{t: t, h: s.Handler()}

	l.do("GET", "/healthz", "")
	l.do("GET", "/studies", "")

	// Create: success, duplicate, and the validation surface.
	l.do("POST", "/studies", wireSpec)
	l.do("POST", "/studies", wireSpec)
	l.do("POST", "/studies", `{"name":"../escape"}`)
	l.do("POST", "/studies", `{"name":"nt"}`)
	l.do("POST", "/studies", `{"name":"k","tuning":[{"name":"x","kind":"complex"}],"outputs":["y"],"tasks":[[0]]}`)
	l.do("POST", "/studies", `{"name":"s","tasks":[[0]],"options":{"surrogate":"kriging"}}`)
	l.do("POST", "/studies", `{"name":"u","bogus_field":1}`)
	l.do("POST", "/studies", `{"name":`)
	l.statusOnly("POST", "/studies", `[1,2]`)

	l.do("GET", "/studies", "")
	l.do("GET", "/studies/w", "")
	l.do("GET", "/healthz", "")
	l.do("GET", "/studies/w/best", "")
	l.do("GET", "/studies/w/pareto", "")
	l.do("GET", "/studies/w/history", "")

	// Unknown study on every study-scoped route.
	l.do("GET", "/studies/nope", "")
	l.do("POST", "/studies/nope/suggest", "")
	l.do("POST", "/studies/nope/report", `{"id":1,"y":[1]}`)
	l.do("GET", "/studies/nope/best", "")
	l.do("GET", "/studies/nope/pareto", "")
	l.do("GET", "/studies/nope/history", "")
	l.do("GET", "/studies/nope/snapshot", "")

	// Suggest: scoped, any-task (empty body), out of range, malformed.
	l.do("POST", "/studies/w/suggest", `{"task":0}`)
	l.do("POST", "/studies/w/suggest", "")
	l.do("POST", "/studies/w/suggest", `{"task":99}`)
	l.do("POST", "/studies/w/suggest", `{"task":0,"extra":true}`)
	l.do("POST", "/studies/w/suggest", `{"task":`)
	l.statusOnly("POST", "/studies/w/suggest", `{"task":"zero"}`)

	// Report: ok, unknown id, wrong arity, non-finite, then the failure
	// path — a substitute configuration under the same id, reported ok.
	l.do("POST", "/studies/w/report", `{"id":0,"y":[0.25]}`)
	l.do("POST", "/studies/w/report", `{"id":999,"y":[1]}`)
	l.do("POST", "/studies/w/report", `{"id":1,"y":[1,2]}`)
	l.statusOnly("POST", "/studies/w/report", `{"id":1,"y":[1e999]}`)
	l.do("POST", "/studies/w/report", `{"id":1,"failed":true,"error":"node died"}`)
	l.do("POST", "/studies/w/report", `{"id":1,"y":[0.5]}`)

	l.do("GET", "/studies/w", "")
	l.do("GET", "/studies/w/best", "")
	l.do("GET", "/studies/w/history", "")

	// Snapshot → import on a second server; duplicate, invalid, and an
	// archive whose logged count disagrees with its WAL.
	arc := l.do("GET", "/studies/w/snapshot", "")
	s2, err := serve.NewServer(serve.Config{DataDir: t.TempDir(), Clock: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	l2 := &wireLog{t: t, h: s2.Handler()}
	l2.buf.WriteString("--- second server\n")
	l2.do("POST", "/studies/import", strings.Replace(arc, `"logged":2`, `"logged":7`, 1))
	l2.do("POST", "/studies/import", arc)
	l2.do("POST", "/studies/import", arc)
	l2.do("POST", "/studies/import", `{"spec":{"name":""}}`)
	l2.do("POST", "/studies/import", `{"spec":{"name":"x"},"archive_version":2}`)
	l2.do("GET", "/studies/w", "")
	l2.do("GET", "/studies", "")

	// The 409: task 0's share of the batch is fully observed while task 1's
	// is not, so a task-0 ask waits for reports that never come, as long as
	// the server lets one request wait.
	restore := s.SetSuggestWait(10 * time.Millisecond)
	l.do("POST", "/studies/w/suggest", `{"task":0}`)
	restore()
	// Terminal failure: the third consecutive failure of one id.
	l.do("POST", "/studies/w/suggest", `{"task":1}`)
	l.do("POST", "/studies/w/report", `{"id":2,"failed":true}`)
	l.do("POST", "/studies/w/report", `{"id":2,"failed":true}`)
	l.do("POST", "/studies/w/report", `{"id":2,"failed":true,"error":"gave up"}`)
	l.do("GET", "/studies/w", "")

	// A two-objective study driven to its budget answers {"done":true}.
	l.do("POST", "/studies", `{"name":"d","tuning":[{"name":"x","kind":"real","lo":0,"hi":1}],"outputs":["y1","y2"],"tasks":[[1]],"options":{"eps_tot":3,"seed":3,"workers":1,"mo_generations":3,"mo_pop_size":8}}`)
	for id, y := range []string{"[1,4]", "[2,3]", "[3,3.5]"} {
		l.do("POST", "/studies/d/suggest", `{"task":-1}`)
		l.do("POST", "/studies/d/report", fmt.Sprintf(`{"id":%d,"y":%s}`, id, y))
	}
	l.do("POST", "/studies/d/suggest", `{"task":-1}`)
	l.do("GET", "/studies/d", "")
	l.do("GET", "/studies/d/best", "")
	l.do("GET", "/studies/d/pareto", "")

	// A spec carrying the retired async flag: the first ask waits for the
	// initial batch like any other study's.
	l.do("POST", "/studies", `{"name":"a","tuning":[{"name":"x","kind":"real","lo":0,"hi":1}],"outputs":["y"],"tasks":[[1]],"options":{"eps_tot":2,"seed":3,"workers":1,"async":true}}`)
	l.do("POST", "/studies/a/suggest", "")

	// Draining flips health to 503; a closed server refuses creates.
	s.BeginDrain()
	hz := l.do("GET", "/healthz", "")
	if !strings.Contains(hz, `"draining"`) {
		t.Errorf("draining health body: %s", hz)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l.do("POST", "/studies", strings.Replace(wireSpec, `"name":"w"`, `"name":"late"`, 1))

	got := append(l.buf.Bytes(), l2.buf.Bytes()...)
	golden := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire drift at golden line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire drift: %d lines recorded, golden has %d", len(gl), len(wl))
	}
}
