package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gptune/api"
	"repro/gptune/client"
	"repro/internal/apps/analytical"
	"repro/internal/core"
	"repro/internal/histdb"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/surrogate"
)

// paperObjective is Eq. (11) of the paper, shared from the analytical app.
// The client evaluates it out of process — the server never sees an
// Objective.
var paperObjective = analytical.Objective

var testTasks = [][]float64{{0}, {1.5}, {3}}

var ctx = context.Background()

// testSpec is the wire form of the core tests' analyticalProblem.
func testSpec(name string, epsTot int, seed int64) api.StudySpec {
	return api.StudySpec{
		Name:       name,
		TaskParams: []api.ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []api.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y"},
		Tasks:      testTasks,
		Options:    api.OptionsSpec{EpsTot: epsTot, Seed: seed, Workers: 1},
	}
}

// testServer is one serve.Server behind an httptest listener, driven
// through the same gptune/client users run.
type testServer struct {
	srv *serve.Server
	hs  *httptest.Server
	c   *client.Client
	dir string // data directory
	url string // base URL, for assertions about status codes, headers or body bytes themselves
}

// startServer opens a server over an explicit data directory (so a second
// one can later resume it); the caller stops it.
func startServer(t *testing.T, dir string) *testServer {
	t.Helper()
	s, err := serve.NewServer(serve.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	return &testServer{srv: s, hs: hs, c: newClient(t, hs.URL), dir: dir, url: hs.URL}
}

func newClient(t *testing.T, base string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		Replicas:    []string{base},
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		JitterSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stop closes the listener, then the server (flushing every WAL).
func (ts *testServer) stop(t *testing.T) {
	t.Helper()
	ts.hs.Close()
	if err := ts.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T) *testServer {
	t.Helper()
	ts := startServer(t, t.TempDir())
	t.Cleanup(func() { ts.hs.Close(); ts.srv.Close() })
	return ts
}

// paper evaluates paperObjective for a suggestion's task.
func paper(tasks [][]float64) func(client.Suggestion) []float64 {
	return func(sg client.Suggestion) []float64 {
		return []float64{paperObjective(tasks[sg.Task][0], sg.X[0])}
	}
}

// drive runs suggest/evaluate/report cycles through the client until the
// budget is exhausted (maxCycles < 0) or maxCycles evaluations were
// reported. Returns the number of evaluations paid.
func drive(t *testing.T, c *client.Client, study string, eval func(client.Suggestion) []float64, maxCycles int) int {
	t.Helper()
	paid := 0
	for maxCycles < 0 || paid < maxCycles {
		sg, err := c.Suggest(ctx, study, -1)
		if errors.Is(err, client.ErrDone) {
			break
		}
		if err != nil {
			t.Fatalf("suggest: %v", err)
		}
		y := eval(sg)
		paid++
		if err := c.Report(ctx, study, sg.ID, y); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	return paid
}

// history fetches the study's full evaluation history.
func history(t *testing.T, c *client.Client, study string) []client.TaskHistory {
	t.Helper()
	h, err := c.History(ctx, study)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	return h
}

// create registers a study, failing the test on any error.
func create(t *testing.T, c *client.Client, spec api.StudySpec) {
	t.Helper()
	if err := c.Create(ctx, spec); err != nil {
		t.Fatalf("create %s: %v", spec.Name, err)
	}
}

// wantStatus asserts err is the server's answer with this HTTP status.
func wantStatus(t *testing.T, err error, code int, what string) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != code {
		t.Errorf("%s: got %v, want HTTP %d", what, err, code)
	}
}

// raw issues one request outside the client — for the assertions that are
// about a status code, a header or the body bytes themselves — decoding the
// response into out when non-nil. The returned response's body is consumed.
func raw(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

// TestServeParityWithBatchRun is the acceptance test for the ask/tell
// service: a study driven entirely over HTTP — the server holds no
// Objective; the client measures and reports — must visit bitwise the same
// configurations and record bitwise the same outputs as the in-process
// batch Run with the same spec, and land on the same best configuration.
func TestServeParityWithBatchRun(t *testing.T) {
	const epsTot, seed = 10, 42

	batch, err := core.Run(&core.Problem{
		Name:    "analytical",
		Tasks:   space.MustNew(space.NewReal("t", 0, 10)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{paperObjective(task[0], x[0])}, nil
		},
	}, testTasks, core.Options{EpsTot: epsTot, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c := newTestServer(t).c
	create(t, c, testSpec("parity", epsTot, seed))
	paid := drive(t, c, "parity", paper(testTasks), -1)
	if want := epsTot * len(testTasks); paid != want {
		t.Fatalf("paid %d evaluations, want %d", paid, want)
	}

	hist := history(t, c, "parity")
	if len(hist) != len(batch.Tasks) {
		t.Fatalf("history has %d tasks, want %d", len(hist), len(batch.Tasks))
	}
	for ti := range hist {
		h, b := hist[ti], batch.Tasks[ti]
		if len(h.X) != len(b.X) {
			t.Fatalf("task %d: %d evaluations over HTTP, %d in batch", ti, len(h.X), len(b.X))
		}
		for i := range h.X {
			for d := range h.X[i] {
				if math.Float64bits(h.X[i][d]) != math.Float64bits(b.X[i][d]) {
					t.Errorf("task %d sample %d: X differs: %v vs %v", ti, i, h.X[i][d], b.X[i][d])
				}
			}
			for k := range h.Y[i] {
				if math.Float64bits(h.Y[i][k]) != math.Float64bits(b.Y[i][k]) {
					t.Errorf("task %d sample %d: Y differs: %v vs %v", ti, i, h.Y[i][k], b.Y[i][k])
				}
			}
		}
	}

	best, err := c.Best(ctx, "parity")
	if err != nil {
		t.Fatalf("best: %v", err)
	}
	for ti := range best {
		bx, by := batch.Tasks[ti].Best()
		if math.Float64bits(best[ti].X[0]) != math.Float64bits(bx[0]) ||
			math.Float64bits(best[ti].Y[0]) != math.Float64bits(by[0]) {
			t.Errorf("task %d: best differs: (%v, %v) vs (%v, %v)",
				ti, best[ti].X[0], best[ti].Y[0], bx[0], by[0])
		}
	}
}

// TestServeInProcessRestartResumes kills a study's server (in-process: the
// Server is closed, a new one opens the same data directory) mid-study and
// checks the resumed history matches an uninterrupted run bitwise, with no
// committed evaluation re-paid.
func TestServeInProcessRestartResumes(t *testing.T) {
	const epsTot, seed, killAfter = 8, 7, 9

	rc := newTestServer(t).c
	create(t, rc, testSpec("ref", epsTot, seed))
	drive(t, rc, "ref", paper(testTasks), -1)
	want := history(t, rc, "ref")

	dir := t.TempDir()
	s1 := startServer(t, dir)
	create(t, s1.c, testSpec("crashy", epsTot, seed))
	paid := drive(t, s1.c, "crashy", paper(testTasks), killAfter)
	s1.stop(t)

	s2 := startServer(t, dir)
	t.Cleanup(func() { s2.stop(t) })

	status, err := s2.c.Status(ctx, "crashy")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.Logged != killAfter {
		t.Fatalf("restart sees %d logged records, want %d", status.Logged, killAfter)
	}
	paid += drive(t, s2.c, "crashy", paper(testTasks), -1)
	if want := epsTot * len(testTasks); paid != want {
		t.Fatalf("paid %d evaluations across the restart, want exactly %d (committed work must not be re-paid)", paid, want)
	}

	got := history(t, s2.c, "crashy")
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: resumed history has %d evaluations, want %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			if math.Float64bits(got[ti].X[i][0]) != math.Float64bits(want[ti].X[i][0]) ||
				math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Errorf("task %d sample %d: resumed history diverged", ti, i)
			}
		}
	}
}

// TestReadsReplayLoggedHistory: the engine's history is the only in-memory
// copy of a study's records, so the read routes must find it complete
// whoever asks first. A finished study is the hard case — nobody will ever
// call suggest on it again — so after a restart, and after an import on a
// second server, status/history/best are read with no suggest in between and
// must answer exactly what the live study answered. The restarted study's
// first reads arrive several at once, racing each other into the catch-up; a
// spec carrying the retired async flag resumes just the same.
func TestReadsReplayLoggedHistory(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			const epsTot, seed = 6, 11
			dir := t.TempDir()
			s1 := startServer(t, dir)
			spec := testSpec("fin", epsTot, seed)
			spec.Options.Async = async
			create(t, s1.c, spec)
			drive(t, s1.c, "fin", paper(testTasks), -1)
			reads := func(c *client.Client) (string, error) {
				status, err := c.Status(ctx, "fin")
				if err != nil {
					return "", err
				}
				if n := epsTot * len(testTasks); !status.Done || status.Phase != "done" || status.Observations != n || status.Logged != n {
					return "", fmt.Errorf("status = %+v, want done with %d observations", status, n)
				}
				hist, err := c.History(ctx, "fin")
				if err != nil {
					return "", err
				}
				best, err := c.Best(ctx, "fin")
				out, _ := json.Marshal(struct {
					History []client.TaskHistory
					Best    []client.BestEntry
				}{hist, best})
				return string(out), err
			}
			want, err := reads(s1.c)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			arc, err := s1.c.Snapshot(ctx, "fin")
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			s1.stop(t)

			s2 := startServer(t, dir)
			t.Cleanup(func() { s2.stop(t) })
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := reads(s2.c); err != nil || got != want {
						t.Errorf("reads after restart: %v\nwant: %s\n got: %s", err, want, got)
					}
				}()
			}
			wg.Wait()
			dst := newTestServer(t)
			if err := dst.c.Import(ctx, arc); err != nil {
				t.Fatalf("import: %v", err)
			}
			if got, err := reads(dst.c); err != nil || got != want {
				t.Fatalf("reads after import: %v\nwant: %s\n got: %s", err, want, got)
			}
		})
	}
}

// TestParentWrittenDataDirResumes opens testdata/datadir — a spec, a
// compacted snapshot and a WAL with evaluation and model records, left as a
// killed server leaves them — and requires it to resume: every logged
// evaluation recovered, none re-paid, and the finished history bitwise equal
// to an uninterrupted run of the same spec. The files were first written by
// the commit before the protocol moved into gptune/api; the log's model and
// search-phase records were re-recorded when the LCM fit began racing its
// starts, because a log resumes only under the fit policy that wrote its
// search-phase records (DESIGN.md §8) — the snapshot, the spec and the
// record shapes are the original ones. When the streams moved to
// internal/rng the initial sample moved too, so the snapshot's and the
// log's drawn values were re-recorded with them; the spec and every record
// shape (the model snapshot's included) are still the original ones. When
// the default fit's iteration cap went from 100 to 50 the model and
// search-phase records were re-recorded again, by the last build that
// still wrote a snapshot's training state with the cap set to 50, so the
// model record keeps its original shape.
func TestParentWrittenDataDirResumes(t *testing.T) {
	const epsTot, logged = 8, 15
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join("testdata", "datadir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", "datadir", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ts := startServer(t, dir)
	t.Cleanup(func() { ts.stop(t) })
	status, err := ts.c.Status(ctx, "fix")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.Logged != logged {
		t.Fatalf("fixture resumes with %d logged records, want %d", status.Logged, logged)
	}
	paid := drive(t, ts.c, "fix", paper(testTasks), -1)
	if want := epsTot*len(testTasks) - logged; paid != want {
		t.Fatalf("paid %d evaluations after resuming the fixture, want exactly %d", paid, want)
	}

	rc := newTestServer(t).c
	create(t, rc, testSpec("fix", epsTot, 7))
	drive(t, rc, "fix", paper(testTasks), -1)
	want, got := history(t, rc, "fix"), history(t, ts.c, "fix")
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: resumed history has %d evaluations, want %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			if math.Float64bits(got[ti].X[i][0]) != math.Float64bits(want[ti].X[i][0]) ||
				math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Errorf("task %d sample %d: resumed history diverged", ti, i)
			}
		}
	}
}

// TestDataDirModelRecordRestores: the model record in
// testdata/datadir, written when a snapshot still carried the fit's training
// state, decodes through surrogate.WarmStart — a later session that passes
// the log's snapshots as Options.WarmStart warm-starts from it.
func TestDataDirModelRecordRestores(t *testing.T) {
	db, err := histdb.Load(filepath.Join("testdata", "datadir", "fix.hist.json"))
	if err != nil {
		t.Fatal(err)
	}
	models := 0
	for _, r := range db.Records() {
		if r.Kind != histdb.KindModel {
			continue
		}
		models++
		if _, err := surrogate.WarmStart(r.Surrogate, r.Snapshot); err != nil {
			t.Errorf("%s model record does not decode: %v", r.Surrogate, err)
		}
	}
	if models == 0 {
		t.Fatal("fixture holds no model record")
	}
}

// TestServeFailedReportRetries exercises the Fail path over HTTP: a failed
// evaluation yields a substitute configuration under the same ID, and the
// third consecutive failure is terminal.
func TestServeFailedReportRetries(t *testing.T) {
	c := newTestServer(t).c
	create(t, c, testSpec("flaky", 4, 3))
	sg, err := c.Suggest(ctx, "flaky", -1)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	id := sg.ID
	prev := sg.X[0]
	for attempt := 1; attempt <= 3; attempt++ {
		retry, terminal, err := c.ReportFailure(ctx, "flaky", id, "node died")
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if attempt < 3 {
			if retry == nil || retry.ID != id {
				t.Fatalf("attempt %d: want retry under id %d, got %+v", attempt, id, retry)
			}
			if retry.X[0] == prev {
				t.Fatalf("attempt %d: retry did not substitute a fresh configuration", attempt)
			}
			prev = retry.X[0]
		} else if !terminal {
			t.Fatalf("attempt 3: want terminal failure, got retry %+v", retry)
		}
	}
}

// TestServeRejectsOverflowingBounds: a create whose bounds a float64 cannot
// span — a real span or log ratio that overflows, or integer bounds past
// ±2^53, which int() would wrap past ±2^63 — is a 400, not a study whose
// every suggestion sits on a bound.
func TestServeRejectsOverflowingBounds(t *testing.T) {
	c := newTestServer(t).c
	for i, ps := range []api.ParamSpec{
		{Name: "x", Kind: "real", Lo: -1e308, Hi: 1e308},
		{Name: "x", Kind: "real", Lo: 1e-300, Hi: 1e300, Log: true},
		{Name: "x", Kind: "integer", Lo: -1e19, Hi: 1e19},
		{Name: "x", Kind: "integer", Lo: 0, Hi: 1 << 60},
	} {
		bad := testSpec(fmt.Sprintf("wide%d", i), 4, 1)
		bad.Tuning = []api.ParamSpec{ps}
		wantStatus(t, c.Create(ctx, bad), http.StatusBadRequest, fmt.Sprintf("%s [%g, %g] log=%v", ps.Kind, ps.Lo, ps.Hi, ps.Log))
	}
}

// TestServeRejectsBadRequests covers the API's validation surface.
func TestServeRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t)
	c := ts.c

	bad := testSpec("ok", 4, 1)
	bad.Name = "../escape"
	wantStatus(t, c.Create(ctx, bad), http.StatusBadRequest, "path-traversal name")
	bad = testSpec("ok", 4, 1)
	bad.Tuning[0].Kind = "complex"
	wantStatus(t, c.Create(ctx, bad), http.StatusBadRequest, "unknown kind")
	bad = testSpec("ok", 4, 1)
	bad.Outputs = nil
	wantStatus(t, c.Create(ctx, bad), http.StatusBadRequest, "no outputs")
	bad = testSpec("ok", 4, 1)
	bad.Tasks = [][]float64{{0, 1}}
	wantStatus(t, c.Create(ctx, bad), http.StatusBadRequest, "task arity mismatch")

	create(t, c, testSpec("ok", 4, 1))
	wantStatus(t, c.Create(ctx, testSpec("ok", 4, 1)), http.StatusConflict, "duplicate study")
	_, err := c.Suggest(ctx, "nope", -1)
	wantStatus(t, err, http.StatusNotFound, "unknown study")
	wantStatus(t, c.Report(ctx, "ok", 999, []float64{1}), http.StatusNotFound, "unknown suggestion id")
	sg, err := c.Suggest(ctx, "ok", -1)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	wantStatus(t, c.Report(ctx, "ok", sg.ID, []float64{1, 2}), http.StatusBadRequest, "wrong output arity")
	// JSON has no literal for Inf/NaN, so a non-finite report dies at body
	// parsing; either way the engine never sees it.
	resp := raw(t, "POST", ts.url+api.StudyPath("ok", api.VerbReport), `{"id":`+fmt.Sprint(sg.ID)+`,"y":[1e999]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-finite output: status %d, want 400", resp.StatusCode)
	}
}

// TestServeRejectsOversizedFitBudget: num_starts reaches the modeling phase as
// an allocation size and model_max_iter as a loop bound, and so do eps_tot
// (the initial design), batch_evals and mo_batch (searches per generation)
// and mo_pop_size and mo_generations (NSGA-II), so a spec past a ceiling is a
// 400 naming it on create and on import and leaves nothing on disk —
// "num_starts": 1099511627776 used to create fine and end the process with
// "out of memory" at the first modeling phase, and "eps_tot" 2^40 at the
// first suggest. A stored spec past a ceiling fails the replica's start-up by
// name. At the fit ceilings a study is created.
func TestServeRejectsOversizedFitBudget(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct {
		what string
		set  func(o *api.OptionsSpec)
	}{
		{"num_starts 1<<40", func(o *api.OptionsSpec) { o.NumStarts = 1 << 40 }},
		{"num_starts past the ceiling", func(o *api.OptionsSpec) { o.NumStarts = surrogate.MaxNumStarts + 1 }},
		{"model_max_iter 2e9", func(o *api.OptionsSpec) { o.ModelMaxIter = 2_000_000_000 }},
		{"model_max_iter past the ceiling", func(o *api.OptionsSpec) { o.ModelMaxIter = surrogate.MaxFitIter + 1 }},
		{"eps_tot 1<<40", func(o *api.OptionsSpec) { o.EpsTot = 1 << 40 }},
		{"batch_evals 1<<40", func(o *api.OptionsSpec) { o.BatchEvals = 1 << 40 }},
		{"mo_batch 1<<40", func(o *api.OptionsSpec) { o.MOBatch = 1 << 40 }},
		{"mo_pop_size 1<<40", func(o *api.OptionsSpec) { o.MOPopSize = 1 << 40 }},
		{"mo_generations 1<<40", func(o *api.OptionsSpec) { o.MOGenerations = 1 << 40 }},
	} {
		bad := testSpec("greedy", 4, 1)
		c.set(&bad.Options)
		err := ts.c.Create(ctx, bad)
		wantStatus(t, err, http.StatusBadRequest, c.what+" on create")
		if option := strings.Fields(c.what)[0]; err == nil || !strings.Contains(err.Error(), option+" ") || !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("%s: error %v does not name %s and its ceiling", c.what, err, option)
		}
		wantStatus(t, ts.c.Import(ctx, client.StudyArchive{Spec: bad}), http.StatusBadRequest, c.what+" on import")
	}
	if files, err := os.ReadDir(ts.dir); err != nil || len(files) != 0 {
		t.Errorf("rejected specs left %d files behind (%v)", len(files), err)
	}
	ok := testSpec("frugal", 4, 1)
	ok.Options.NumStarts, ok.Options.ModelMaxIter = surrogate.MaxNumStarts, surrogate.MaxFitIter
	create(t, ts.c, ok)

	stored := testSpec("hoarder", 4, 1)
	stored.Options.EpsTot = 1 << 40
	blob, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "hoarder"+api.SpecSuffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.NewServer(serve.Config{DataDir: dir}); err == nil || !strings.Contains(err.Error(), "hoarder") || !strings.Contains(err.Error(), "eps_tot") {
		t.Errorf("resuming a stored spec past a ceiling: %v, want an error naming the study and the option", err)
	}
}

// TestServeRejectsAcquisitionItCannotHonour: an unknown acquisition, and LCB
// or PI on a two-objective study, are a 400 on create and on import that
// leaves nothing on disk. They used to create a study that ran EI.
func TestServeRejectsAcquisitionItCannotHonour(t *testing.T) {
	ts := newTestServer(t)
	mo := testSpec("mo", 4, 1)
	mo.Outputs = []string{"y1", "y2"}
	for _, c := range []struct {
		spec api.StudySpec
		acq  string
	}{{testSpec("so", 4, 1), "ucb"}, {mo, "lcb"}, {mo, "pi"}} {
		bad := c.spec
		bad.Options.Acquisition = c.acq
		what := fmt.Sprintf("acquisition %q on %d outputs", c.acq, len(bad.Outputs))
		err := ts.c.Create(ctx, bad)
		wantStatus(t, err, http.StatusBadRequest, what+" on create")
		if err == nil || !strings.Contains(err.Error(), c.acq) {
			t.Errorf("%s: error %v does not name it", what, err)
		}
		wantStatus(t, ts.c.Import(ctx, client.StudyArchive{Spec: bad}), http.StatusBadRequest, what+" on import")
	}
	if files, err := os.ReadDir(ts.dir); err != nil || len(files) != 0 {
		t.Errorf("rejected specs left %d files behind (%v)", len(files), err)
	}
	ok := testSpec("so", 4, 1)
	ok.Options.Acquisition = "lcb"
	create(t, ts.c, ok)
}

// TestServeSuggestPerTask checks task-scoped suggestions and the
// none-pending signal.
func TestServeSuggestPerTask(t *testing.T) {
	c := newTestServer(t).c
	create(t, c, testSpec("scoped", 4, 5))
	sg, err := c.Suggest(ctx, "scoped", 1)
	if err != nil {
		t.Fatalf("suggest task 1: %v", err)
	}
	if sg.Task != 1 {
		t.Fatalf("asked for task 1, got task %d", sg.Task)
	}
	// Drain task 1's remaining fresh init job; the next ask then re-issues
	// the first outstanding suggestion (crashed-client re-ask), same ID.
	if _, err := c.Suggest(ctx, "scoped", 1); err != nil {
		t.Fatalf("second suggest: %v", err)
	}
	again, err := c.Suggest(ctx, "scoped", 1)
	if err != nil {
		t.Fatalf("re-suggest: %v", err)
	}
	if again.ID != sg.ID {
		t.Fatalf("re-ask for task 1 returned id %d, want outstanding id %d", again.ID, sg.ID)
	}
	_, err = c.Suggest(ctx, "scoped", 99)
	wantStatus(t, err, http.StatusBadRequest, "out-of-range task")
}

// TestServeMultiObjectivePareto drives a two-objective study over HTTP and
// checks the pareto endpoint returns a non-dominated set.
func TestServeMultiObjectivePareto(t *testing.T) {
	spec := api.StudySpec{
		Name:       "mo",
		TaskParams: []api.ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []api.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y1", "y2"},
		Tasks:      [][]float64{{1}},
		Options:    api.OptionsSpec{EpsTot: 6, Seed: 11, MOGenerations: 5, MOPopSize: 12},
	}
	c := newTestServer(t).c
	create(t, c, spec)
	drive(t, c, "mo", func(sg client.Suggestion) []float64 {
		x := sg.X[0]
		return []float64{x * x, (x - 1) * (x - 1)}
	}, -1)
	front, err := c.Pareto(ctx, "mo")
	if err != nil {
		t.Fatalf("pareto: %v", err)
	}
	if len(front) != 1 || len(front[0].Y) == 0 {
		t.Fatalf("empty pareto front: %+v", front)
	}
	for _, a := range front[0].Y {
		for _, b := range front[0].Y {
			if dominates(a, b) {
				t.Fatalf("pareto front contains dominated point: %v dominates %v", a, b)
			}
		}
	}
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// TestServeSurrogateRestartRoundTrip: the spec's "surrogate" field selects
// the engine's model backend, survives the spec's durable persistence across
// a server restart, and is reported (with the engine phase) by the status and
// history endpoints. An unknown kind is rejected before anything is persisted.
func TestServeSurrogateRestartRoundTrip(t *testing.T) {
	spec := api.StudySpec{
		Name:       "forest",
		TaskParams: []api.ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []api.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y"},
		Tasks:      [][]float64{{1.5}},
		Options:    api.OptionsSpec{EpsTot: 6, Seed: 13, Workers: 1, Surrogate: "rf"},
	}
	tasks := spec.Tasks

	dir := t.TempDir()
	s1 := startServer(t, dir)

	bad := spec
	bad.Name = "bogus"
	bad.Options.Surrogate = "kriging"
	wantStatus(t, s1.c.Create(ctx, bad), http.StatusBadRequest, "unknown surrogate")
	create(t, s1.c, spec)

	status, err := s1.c.Status(ctx, "forest")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.Surrogate != "rf" || status.Phase != "init" {
		t.Fatalf("fresh study: surrogate=%q phase=%q, want rf/init", status.Surrogate, status.Phase)
	}

	// Kill the server mid-init and reopen the data directory: the persisted
	// spec, not the client, must carry the surrogate choice through.
	drive(t, s1.c, "forest", paper(tasks), 2)
	s1.stop(t)
	s2 := startServer(t, dir)
	t.Cleanup(func() { s2.stop(t) })

	if status, err = s2.c.Status(ctx, "forest"); err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if status.Surrogate != "rf" || status.Phase != "init" {
		t.Fatalf("resumed study: surrogate=%q phase=%q, want rf/init", status.Surrogate, status.Phase)
	}
	drive(t, s2.c, "forest", paper(tasks), -1)
	if status, err = s2.c.Status(ctx, "forest"); err != nil {
		t.Fatalf("status after finish: %v", err)
	}
	if !status.Done || status.Phase != "done" || status.Surrogate != "rf" {
		t.Fatalf("finished study: done=%v phase=%q surrogate=%q", status.Done, status.Phase, status.Surrogate)
	}

	// The client returns only the tasks; surrogate and phase are fields of
	// the history body itself.
	var hist api.History
	if resp := raw(t, "GET", s2.url+api.StudyPath("forest", api.VerbHistory), "", &hist); resp.StatusCode != http.StatusOK {
		t.Fatalf("history: %d", resp.StatusCode)
	}
	if hist.Surrogate != "rf" || hist.Phase != "done" {
		t.Fatalf("history reports surrogate=%q phase=%q, want rf/done", hist.Surrogate, hist.Phase)
	}
	if got := len(hist.Tasks[0].X); got != 6 {
		t.Fatalf("finished study has %d evaluations, want 6", got)
	}
}

// TestConcurrentDuplicateCreate races N identical creates: the name
// reservation must let exactly one through (201) and reject the rest (409),
// without ever holding the server mutex across the spec fsync or WAL open.
func TestConcurrentDuplicateCreate(t *testing.T) {
	c := newTestServer(t).c
	const racers = 8
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	wg.Add(racers)
	for r := 0; r < racers; r++ {
		go func() {
			defer wg.Done()
			errs <- c.Create(ctx, testSpec("dup", 4, 1))
		}()
	}
	wg.Wait()
	close(errs)
	var created, conflicted int
	for err := range errs {
		var apiErr *client.APIError
		switch {
		case err == nil:
			created++
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict:
			conflicted++
		default:
			t.Fatalf("unexpected create result: %v", err)
		}
	}
	if created != 1 || conflicted != racers-1 {
		t.Fatalf("got %d created / %d conflicted, want 1 / %d", created, conflicted, racers-1)
	}
	// The winner is fully usable.
	if studies, err := c.Studies(ctx); err != nil || len(studies) != 1 {
		t.Fatalf("list after race: %v, studies %v", err, studies)
	}
}

// TestConcurrentDistinctCreates verifies distinct names do not serialize
// against each other's I/O and all succeed.
func TestConcurrentDistinctCreates(t *testing.T) {
	c := newTestServer(t).c
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			name := fmt.Sprintf("study-%d", r)
			if err := c.Create(ctx, testSpec(name, 4, int64(r+1))); err != nil {
				errs <- fmt.Errorf("create %s: %w", name, err)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if studies, err := c.Studies(ctx); err != nil || len(studies) != n {
		t.Fatalf("list: %v, got %d studies, want %d", err, len(studies), n)
	}
}

// TestSuggestResponseEncoding pins the suggest wire format: a done response
// is exactly {"done":true} — the old flat struct serialized it as
// {"id":0,"task":0,"done":true}, indistinguishable from a real task-0
// suggestion — and a real suggestion nests under "suggestion" with no done
// flag.
func TestSuggestResponseEncoding(t *testing.T) {
	data, err := json.Marshal(api.SuggestResponse{Done: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != `{"done":true}` {
		t.Errorf("done response encodes as %s, want {\"done\":true}", got)
	}
	data, err = json.Marshal(api.SuggestResponse{Suggestion: &api.Suggestion{ID: 3, Task: 1, Phase: "init", X: []float64{0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	var loose map[string]any
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	if _, hasDone := loose["done"]; hasDone {
		t.Errorf("suggestion response leaks a done field: %s", data)
	}
	inner, ok := loose["suggestion"].(map[string]any)
	if !ok {
		t.Fatalf("suggestion response has no nested suggestion object: %s", data)
	}
	for _, field := range []string{"id", "task", "x"} {
		if _, ok := inner[field]; !ok {
			t.Errorf("nested suggestion is missing %q: %s", field, data)
		}
	}

	// End to end: a finished study's suggest body must not contain id/task.
	ts := newTestServer(t)
	create(t, ts.c, testSpec("enc", 2, 21))
	drive(t, ts.c, "enc", paper(testTasks), -1)
	var body map[string]any
	raw(t, "POST", ts.url+api.StudyPath("enc", api.VerbSuggest), "", &body)
	if _, ok := body["id"]; ok {
		t.Errorf("done suggest body still carries a top-level id: %v", body)
	}
	if done, _ := body["done"].(bool); !done {
		t.Errorf("finished study's suggest body lacks done: %v", body)
	}
}

// TestServeAsyncStudyParity: options.async once selected a polling protocol
// for suggest and is still carried by specs persisted beside WALs and sent by
// old clients. It is accepted and changes nothing: the study's first ask is
// answered with a suggestion like any other's, and its history matches
// bitwise that of the same spec without the flag.
func TestServeAsyncStudyParity(t *testing.T) {
	const epsTot, seed = 8, 17
	ts := newTestServer(t)
	c := ts.c

	create(t, c, testSpec("sync", epsTot, seed))
	drive(t, c, "sync", paper(testTasks), -1)
	want := history(t, c, "sync")

	async := testSpec("async", epsTot, seed)
	async.Options.Async = true
	create(t, c, async)
	var first api.SuggestResponse
	if resp := raw(t, "POST", ts.url+api.StudyPath("async", api.VerbSuggest), "", &first); resp.StatusCode != http.StatusOK || first.Suggestion == nil {
		t.Fatalf("first suggest: status %d, body %+v; want the suggestion, waited for", resp.StatusCode, first)
	}

	drive(t, c, "async", paper(testTasks), -1)
	got := history(t, c, "async")

	status, err := c.Status(ctx, "async")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !status.Done {
		t.Fatalf("finished study reports done=%v", status.Done)
	}
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: async history has %d evaluations, sync %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			if math.Float64bits(got[ti].X[i][0]) != math.Float64bits(want[ti].X[i][0]) ||
				math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Errorf("task %d sample %d: async history diverged from sync", ti, i)
			}
		}
	}
}

// TestServeAsyncRestartResumes closes a server mid-study and resumes it in a
// new server from a persisted spec that carries "async": true, finishing
// with the reference history of the same spec without the flag.
func TestServeAsyncRestartResumes(t *testing.T) {
	const epsTot, seed, killAfter = 8, 23, 9
	rc := newTestServer(t).c
	create(t, rc, testSpec("ref", epsTot, seed))
	drive(t, rc, "ref", paper(testTasks), -1)
	want := history(t, rc, "ref")

	dir := t.TempDir()
	s1 := startServer(t, dir)
	spec := testSpec("crashy", epsTot, seed)
	spec.Options.Async = true
	create(t, s1.c, spec)
	paid := drive(t, s1.c, "crashy", paper(testTasks), killAfter)
	s1.stop(t)

	s2 := startServer(t, dir)
	t.Cleanup(func() { s2.stop(t) })
	paid += drive(t, s2.c, "crashy", paper(testTasks), -1)
	if want := epsTot * len(testTasks); paid != want {
		t.Fatalf("paid %d evaluations across the restart, want exactly %d", paid, want)
	}
	got := history(t, s2.c, "crashy")
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: resumed async history has %d evaluations, want %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			if math.Float64bits(got[ti].X[i][0]) != math.Float64bits(want[ti].X[i][0]) ||
				math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Errorf("task %d sample %d: resumed async history diverged", ti, i)
			}
		}
	}
}

// wantNoStudyFiles asserts a failed admit left nothing behind for the name:
// no spec, no snapshot and no write-ahead log.
func wantNoStudyFiles(t *testing.T, dir, name string) {
	t.Helper()
	hist := filepath.Join(dir, name+api.HistSuffix)
	for _, p := range []string{filepath.Join(dir, name+api.SpecSuffix), hist, histdb.WalPath(hist)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s left behind by a rejected admit (stat: %v)", filepath.Base(p), err)
		}
	}
}

// TestCreateAfterClose pins the insert-or-rollback path: once Close has
// run, a create must fail with 503 and must not leak a WAL handle or any
// file for a study the close snapshot never saw — also when Close lands
// while the create is between opening its WAL and installing the study.
func TestCreateAfterClose(t *testing.T) {
	ts := newTestServer(t)
	if err := ts.srv.Close(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, ts.c.Create(ctx, testSpec("late", 4, 1)), http.StatusServiceUnavailable, "create after close")
	wantNoStudyFiles(t, ts.dir, "late")

	// The engine reads the clock once as it is built, after core.Resume has
	// made the header-only log: closing the server from there is exactly the
	// race in which install finds the server closed.
	var srv *serve.Server
	var closing sync.Once
	dir := t.TempDir()
	srv, err := serve.NewServer(serve.Config{DataDir: dir, Clock: func() time.Time {
		closing.Do(func() { srv.Close() })
		return time.Now()
	}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	wantStatus(t, newClient(t, hs.URL).Create(ctx, testSpec("raced", 4, 1)), http.StatusServiceUnavailable, "create racing close")
	wantNoStudyFiles(t, dir, "raced")
}
