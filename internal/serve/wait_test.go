package serve_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/gptune/api"
	"repro/gptune/client"
	"repro/internal/histdb"
)

// fillSlot creates a study over testTasks and reports task 0's whole share of
// the initial batch, so that the next ask for task 0 has nothing to be handed
// until the other tasks' evaluators report. It returns those evaluators'
// outstanding suggestions.
func fillSlot(t *testing.T, c *client.Client, name string) (outstanding []client.Suggestion) {
	t.Helper()
	create(t, c, testSpec(name, 4, 5)) // two initial configurations per task
	for task := range testTasks {
		for i := 0; i < 2; i++ {
			sg, err := c.Suggest(ctx, name, task)
			if err != nil {
				t.Fatalf("suggest task %d: %v", task, err)
			}
			if task > 0 {
				outstanding = append(outstanding, sg)
			} else if err := c.Report(ctx, name, sg.ID, paper(testTasks)(sg)); err != nil {
				t.Fatalf("report: %v", err)
			}
		}
	}
	return outstanding
}

type suggestAnswer struct {
	code       int
	retryAfter string
	body       api.SuggestResponse
}

// parkSuggest posts one task-0 suggest from a goroutine of its own and
// returns the channel its answer arrives on, after giving it time to park and
// checking it has not been answered.
func parkSuggest(t *testing.T, reqCtx context.Context, base, study string) <-chan suggestAnswer {
	t.Helper()
	out := make(chan suggestAnswer, 1)
	go func() {
		var a suggestAnswer
		defer func() { out <- a }()
		req, err := http.NewRequestWithContext(reqCtx, "POST", base+api.StudyPath(study, api.VerbSuggest), bytes.NewReader([]byte(`{"task":0}`)))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // the caller cancelled reqCtx
		}
		defer resp.Body.Close()
		a.code, a.retryAfter = resp.StatusCode, resp.Header.Get(api.RetryAfterHeader)
		if resp.StatusCode == http.StatusOK {
			if err := api.Decode(resp.Body, &a.body); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case a := <-out:
		t.Fatalf("suggest for a filled slot was answered %d %+v; want it parked", a.code, a.body)
	case <-time.After(30 * time.Millisecond):
	}
	return out
}

func awaitSuggest(t *testing.T, out <-chan suggestAnswer, what string) suggestAnswer {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(5 * time.Second): // half the server's bound on the wait
		t.Fatalf("%s: the parked suggest was not answered", what)
		return suggestAnswer{}
	}
}

// TestSuggestParksUntilLastReport: an evaluator whose task's slot is filled
// asks once and is answered — by that one request, with no 409 in between —
// the moment the report that completes the batch lands.
func TestSuggestParksUntilLastReport(t *testing.T) {
	ts := newTestServer(t)
	outstanding := fillSlot(t, ts.c, "park")
	out := parkSuggest(t, ctx, ts.url, "park")
	for _, sg := range outstanding {
		select {
		case a := <-out:
			t.Fatalf("parked suggest answered %d %+v with reports outstanding", a.code, a.body)
		default:
		}
		if err := ts.c.Report(ctx, "park", sg.ID, paper(testTasks)(sg)); err != nil {
			t.Fatal(err)
		}
	}
	a := awaitSuggest(t, out, "after the batch's last report")
	if a.code != http.StatusOK || a.body.Suggestion == nil || a.body.Suggestion.Task != 0 || a.body.Suggestion.Phase != "search" {
		t.Fatalf("parked suggest answered %d %+v, want 200 with task 0's search suggestion", a.code, a.body)
	}
}

// TestSuggestWaitExpires: the one 409 left. The server bounds how long a
// request may wait; past it the asker is told to ask again at once.
func TestSuggestWaitExpires(t *testing.T) {
	ts := newTestServer(t)
	fillSlot(t, ts.c, "bound")
	defer ts.srv.SetSuggestWait(20 * time.Millisecond)()
	var body api.Error
	resp := raw(t, "POST", ts.url+api.StudyPath("bound", api.VerbSuggest), `{"task":0}`, &body)
	if resp.StatusCode != api.StatusConflict || resp.Header.Get(api.RetryAfterHeader) != "0" || body.Error == "" {
		t.Fatalf("suggest past the server's bound: %d, Retry-After %q, %+v; want 409, \"0\" and an error body",
			resp.StatusCode, resp.Header.Get(api.RetryAfterHeader), body)
	}
	// The client surfaces it as the engine's own sentinel.
	if _, err := ts.c.Suggest(ctx, "bound", 0); !errors.Is(err, client.ErrNonePending) {
		t.Errorf("client suggest past the bound: %v, want ErrNonePending", err)
	}
}

// TestDrainReleasesParkedSuggest: a rolling restart must not wait on parked
// evaluators. BeginDrain answers them 503 at once — the client's cue to ask
// whichever replica serves the study next — an ask that would park afterwards
// gets the same, and Close returns.
func TestDrainReleasesParkedSuggest(t *testing.T) {
	ts := startServer(t, t.TempDir())
	fillSlot(t, ts.c, "drain")
	out := parkSuggest(t, ctx, ts.url, "drain")
	ts.srv.BeginDrain()
	if a := awaitSuggest(t, out, "after BeginDrain"); a.code != api.StatusDraining {
		t.Errorf("parked suggest on a draining replica answered %d, want 503", a.code)
	}
	if resp := raw(t, "POST", ts.url+api.StudyPath("drain", api.VerbSuggest), `{"task":0}`, nil); resp.StatusCode != api.StatusDraining {
		t.Errorf("suggest that would park on a draining replica answered %d, want 503", resp.StatusCode)
	}
	ts.stop(t)
}

// TestDisconnectFreesParkedHandler: an evaluator that hangs up takes its
// handler with it instead of leaving it parked until the bound.
func TestDisconnectFreesParkedHandler(t *testing.T) {
	ts := newTestServer(t)
	fillSlot(t, ts.c, "gone")
	var inFlight atomic.Int64
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		ts.srv.Handler().ServeHTTP(w, r)
	}))
	defer counted.Close()

	reqCtx, hangUp := context.WithCancel(ctx)
	out := parkSuggest(t, reqCtx, counted.URL, "gone")
	if n := inFlight.Load(); n != 1 {
		t.Fatalf("%d handlers in flight with one suggest parked", n)
	}
	hangUp()
	<-out
	for deadline := time.Now().Add(5 * time.Second); inFlight.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the handler of a disconnected suggest is still parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepeatedReportOverHTTP: the client retries a report whose response was
// lost, so the second delivery of an applied report must be acknowledged —
// not answered 404, which would tell the caller an evaluation that is on disk
// had failed — and must not commit, count or log anything twice.
func TestRepeatedReportOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	create(t, ts.c, testSpec("dup", 4, 5))
	sg, err := ts.c.Suggest(ctx, "dup", 0)
	if err != nil {
		t.Fatal(err)
	}
	state := func() (client.Status, []byte) {
		st, err := ts.c.Status(ctx, "dup")
		if err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(histdb.WalPath(filepath.Join(ts.dir, "dup"+api.HistSuffix)))
		if err != nil {
			t.Fatal(err)
		}
		return st, wal
	}
	if err := ts.c.Report(ctx, "dup", sg.ID, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	before, walBefore := state()
	if before.Observations != 1 || before.Logged != 1 {
		t.Fatalf("after the first report: %+v, want 1 observation logged", before)
	}
	if err := ts.c.Report(ctx, "dup", sg.ID, []float64{0.5}); err != nil {
		t.Errorf("repeated report: %v, want it acknowledged", err)
	}
	after, walAfter := state()
	if after != before || !bytes.Equal(walBefore, walAfter) {
		t.Errorf("repeated report changed the study: %+v → %+v, WAL %d → %d bytes", before, after, len(walBefore), len(walAfter))
	}
	wantStatus(t, ts.c.Report(ctx, "dup", 999, []float64{0.5}), http.StatusNotFound, "report of a never-issued ID")
}
