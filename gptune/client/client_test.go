package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/gptune/api"
	"repro/internal/ring"
	"repro/internal/serve"
)

func testCfg(replicas ...string) Config {
	return Config{
		Replicas:    replicas,
		Timeout:     5 * time.Second,
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		JitterSeed:  1,
	}
}

func testSpec(name string, epsTot int) StudySpec {
	return StudySpec{
		Name:       name,
		TaskParams: []ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y"},
		Tasks:      [][]float64{{0}, {1.5}},
		Options:    OptionsSpec{EpsTot: epsTot, Seed: 11, Workers: 1},
	}
}

// countingHandler answers a scripted status sequence for suggest, then a
// real suggestion, counting requests.
type countingHandler struct {
	mu       sync.Mutex
	statuses []int // statuses to answer before succeeding
	requests int
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.requests++
	if len(h.statuses) > 0 {
		code := h.statuses[0]
		h.statuses = h.statuses[1:]
		if code == http.StatusConflict {
			w.Header().Set("Retry-After", "0")
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error":"scripted %d"}`, code)
		return
	}
	fmt.Fprint(w, `{"suggestion":{"id":7,"task":0,"phase":"search","x":[0.5]}}`)
}

// TestSuggestRetriesThrough409: two 409-with-Retry-After answers (the
// server's bound on a suggest's wait passed twice) must be retried away
// transparently, like a well-behaved client honoring the hint.
func TestSuggestRetriesThrough409(t *testing.T) {
	h := &countingHandler{statuses: []int{http.StatusConflict, http.StatusConflict}}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := c.Suggest(context.Background(), "s", -1)
	if err != nil {
		t.Fatal(err)
	}
	if sg.ID != 7 || sg.X[0] != 0.5 {
		t.Fatalf("suggestion: %+v", sg)
	}
	if h.requests != 3 {
		t.Fatalf("made %d requests, want 3", h.requests)
	}
}

// TestBackoffBoundsTheHint: Retry-After is outside input. Whatever it says —
// a day, a number that overflows a Duration into the negative — the delay
// stays within (0, MaxBackoff], so a caller is neither parked for hours nor
// spun through its retry budget without sleeping.
func TestBackoffBoundsTheHint(t *testing.T) {
	cfg := testCfg("http://replica")
	cfg.BaseBackoff, cfg.MaxBackoff = 8*time.Millisecond, 50*time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		header  string
		attempt int
		d       time.Duration // un-jittered delay: the draw lies in [d/2, d)
	}{
		{"", 0, 8 * time.Millisecond},
		{"", 2, 32 * time.Millisecond},
		{"", 9, 50 * time.Millisecond},
		{"0", 0, 2 * time.Millisecond},
		{"1", 0, 50 * time.Millisecond},
		{"86400", 0, 50 * time.Millisecond},
		{"9223372036", 0, 50 * time.Millisecond},  // the most seconds a Duration holds
		{"99999999999", 1, 16 * time.Millisecond}, // would overflow negative: not a hint
		{"-5", 1, 16 * time.Millisecond},
		{"soon", 1, 16 * time.Millisecond},
	} {
		for draw := 0; draw < 20; draw++ {
			if got := c.backoff(tc.attempt, tc.header); got < tc.d/2 || got >= tc.d {
				t.Errorf("backoff(attempt %d, Retry-After %q) = %v, want within [%v, %v)", tc.attempt, tc.header, got, tc.d/2, tc.d)
				break
			}
		}
	}
}

// TestZeroJitterSeedVariesPerClient: clients left at the zero JitterSeed
// draw their own seed, so a fleet released by one 503 spreads its retries;
// a pinned seed replays its own sequence.
func TestZeroJitterSeedVariesPerClient(t *testing.T) {
	backoffs := func(seed int64) []time.Duration {
		cfg := testCfg("http://replica")
		cfg.JitterSeed = seed
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ds []time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			ds = append(ds, c.backoff(attempt%3, ""))
		}
		return ds
	}
	if a, b := backoffs(0), backoffs(0); slices.Equal(a, b) {
		t.Errorf("two zero-seed clients drew the same backoffs %v", a)
	}
	if a, b := backoffs(7), backoffs(7); !slices.Equal(a, b) {
		t.Errorf("seed 7 drew %v, then %v", a, b)
	}
}

// TestSuggestExhausted409IsErrNonePending: a study whose batch never frees
// up within the retry budget surfaces the same sentinel a local engine
// returns, so callers' errors.Is logic is transport-agnostic.
func TestSuggestExhausted409IsErrNonePending(t *testing.T) {
	h := &countingHandler{statuses: []int{409, 409, 409, 409, 409, 409, 409}}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Suggest(context.Background(), "s", -1)
	if !errors.Is(err, ErrNonePending) {
		t.Fatalf("got %v, want ErrNonePending", err)
	}
	if h.requests != 4 { // first attempt + MaxRetries
		t.Fatalf("made %d requests, want 4", h.requests)
	}
}

// TestRetryOn503Draining: a draining replica (503) is retried — it comes
// back after a rolling restart — and succeeds once healthy.
func TestRetryOn503Draining(t *testing.T) {
	h := &countingHandler{statuses: []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Suggest(context.Background(), "s", -1); err != nil {
		t.Fatalf("suggest through 503s: %v", err)
	}
	if h.requests != 3 {
		t.Fatalf("made %d requests, want 3", h.requests)
	}
}

// TestConnectionResetMidBodyRetries: a replica dying mid-response (partial
// JSON body, connection closed) must be retried, not surfaced as a decode
// error.
func TestConnectionResetMidBodyRetries(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, buf, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			// Status line + truncated body, then a hard close: the client
			// sees a reset mid-body.
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 60\r\n\r\n{\"suggestion\":{\"id\":7,")
			buf.Flush()
			conn.Close()
			return
		}
		fmt.Fprint(w, `{"suggestion":{"id":7,"task":0,"x":[0.5]}}`)
	}))
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := c.Suggest(context.Background(), "s", -1)
	if err != nil {
		t.Fatalf("suggest through mid-body reset: %v", err)
	}
	if sg.ID != 7 {
		t.Fatalf("suggestion: %+v", sg)
	}
}

// TestLargeResponseKeepsItsConnection: a History large enough that net/http
// sends it chunked (2,000 points) is read to EOF, so ten calls reuse one
// keep-alive connection instead of opening one each.
func TestLargeResponseKeepsItsConnection(t *testing.T) {
	h := api.History{Phase: "search", Surrogate: "lcm", Tasks: []api.TaskHistory{{Task: []float64{0}}}}
	for i := 0; i < 2000; i++ {
		h.Tasks[0].X = append(h.Tasks[0].X, []float64{float64(i) / 2000})
		h.Tasks[0].Y = append(h.Tasks[0].Y, []float64{math.Sqrt(float64(i))})
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, h)
	}))
	var mu sync.Mutex
	conns := 0
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tasks, err := c.History(context.Background(), "s")
		if err != nil || len(tasks) != 1 || len(tasks[0].X) != 2000 {
			t.Fatalf("history: %d tasks, %v", len(tasks), err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Fatalf("ten History calls opened %d connections, want 1", conns)
	}
}

// TestDoneIsErrDone: {"done":true} maps to the ErrDone sentinel.
func TestDoneIsErrDone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"done":true}`)
	}))
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Suggest(context.Background(), "s", -1); !errors.Is(err, ErrDone) {
		t.Fatalf("got %v, want ErrDone", err)
	}
}

// TestCreateConflictNotRetried: a duplicate-study 409 is a real answer, not
// contention — exactly one request, surfaced as an APIError.
func TestCreateConflictNotRetried(t *testing.T) {
	h := &countingHandler{statuses: []int{409, 409, 409}}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(testCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Create(context.Background(), testSpec("dup", 4))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("got %v, want 409 APIError", err)
	}
	if h.requests != 1 {
		t.Fatalf("made %d requests, want 1 (409 on create must not retry)", h.requests)
	}
}

// TestRoutingToOwner: with several replicas, every study-scoped call lands
// on the study's rendezvous owner — the invariant that lets clients and the
// router agree on placement with no coordination.
func TestRoutingToOwner(t *testing.T) {
	const replicas = 3
	hits := make([]map[string]int, replicas)
	urls := make([]string, replicas)
	var mu sync.Mutex
	for i := 0; i < replicas; i++ {
		i := i
		hits[i] = make(map[string]int)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /studies/{study}", func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i][r.PathValue("study")]++
			mu.Unlock()
			fmt.Fprint(w, `{"name":"x","phase":"init","done":false}`)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		urls[i] = srv.URL
	}
	c, err := New(testCfg(urls...))
	if err != nil {
		t.Fatal(err)
	}
	rg := ring.New(urls...)
	for s := 0; s < 20; s++ {
		study := fmt.Sprintf("study-%d", s)
		if _, err := c.Status(context.Background(), study); err != nil {
			t.Fatal(err)
		}
		owner, _ := rg.Owner(study)
		if got := c.Owner(study); got != owner {
			t.Fatalf("client owner %s, ring owner %s", got, owner)
		}
		for i, u := range urls {
			want := 0
			if u == owner {
				want = 1
			}
			if hits[i][study] != want {
				t.Fatalf("study %s: replica %s saw %d requests, want %d", study, u, hits[i][study], want)
			}
		}
	}
}

// TestStudiesSkipsAnUnreachableReplica: a live replica with no studies
// answers, so Studies returns [] although the other replica is unreachable.
func TestStudiesSkipsAnUnreachableReplica(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, `{"studies":[]}`) }))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, err := New(testCfg(live.URL, dead.URL))
	if err != nil {
		t.Fatal(err)
	}
	if names, err := c.Studies(context.Background()); err != nil || names == nil || len(names) != 0 {
		t.Fatalf("Studies = %q, %v; want [] and no error", names, err)
	}
}

// TestClientDrivesRealStudy: the acceptance loop — a real serve.Server
// study driven entirely through the client, terminated by errors.Is(err,
// ErrDone) exactly like a local engine loop.
func TestClientDrivesRealStudy(t *testing.T) {
	s, err := serve.NewServer(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() { hs.Close(); s.Close() }()

	c, err := New(testCfg(hs.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := testSpec("e2e", 6)
	if err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	paid := 0
	for {
		sg, err := c.Suggest(ctx, "e2e", -1)
		if errors.Is(err, ErrDone) {
			break
		}
		if errors.Is(err, ErrNonePending) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		y := 1 + math.Cos(2*math.Pi*sg.X[0])
		if err := c.Report(ctx, "e2e", sg.ID, []float64{y}); err != nil {
			t.Fatal(err)
		}
		paid++
	}
	st, err := c.Status(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Observations != paid {
		t.Fatalf("status after drive: %+v (paid %d)", st, paid)
	}
	hist, err := c.History(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, th := range hist {
		total += len(th.Y)
	}
	if total != paid {
		t.Fatalf("history holds %d evaluations, paid %d", total, paid)
	}
	if _, err := c.Best(ctx, "e2e"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pareto(ctx, "e2e"); err != nil {
		t.Fatal(err)
	}
	studies, err := c.Studies(ctx)
	if err != nil || len(studies) != 1 || studies[0] != "e2e" {
		t.Fatalf("studies list: %v, %v", studies, err)
	}
	// Marshal round-trip sanity for the archive path.
	arc, err := c.Snapshot(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if arc.Logged == 0 {
		t.Fatal("archive logs no evaluations")
	}
	if _, err := json.Marshal(arc); err != nil {
		t.Fatal(err)
	}
}

// FuzzResponseDecoding: whatever status (200–599) and body a replica answers
// with, every call returns a value or an error and never panics, and the two
// sentinels come back only for their own statuses — ErrDone from a suggest
// answered below 400, ErrNonePending from a suggest answered 409. Run it with
// go test ./gptune/client -run '^$' -fuzz FuzzResponseDecoding -fuzztime 60s.
func FuzzResponseDecoding(f *testing.F) {
	for _, seed := range []struct {
		status int
		body   string
	}{
		{200, `{"done":true}`},
		{200, `{"suggestion":{"id":1,"task":0,"phase":"search","x":[0.5]}}`},
		{200, `{"suggestion":null}`},
		{200, `{"ok":false,"error":"x"}`},
		{200, `{"ok":true,"retry":{"id":2,"x":[1]},"terminal":true}`},
		{200, `{"tasks":[{"task":[1],"x":[[0.5]],"y":[[1]]}]}`},
		{200, `{"spec":{"name":"s"},"snapshot":"AAAA","wal":"!!"}`},
		{200, `{"studies":["a",null,1]}`},
		{200, `null`},
		{200, `[`},
		{204, ``},
		{302, ``},
		{409, `{"error":"none pending"}`},
		{409, `{"error":`},
		{503, ``},
		{500, `<html>bad gateway</html>`},
	} {
		f.Add(seed.status, []byte(seed.body))
	}
	var mu sync.Mutex
	var status int
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s, b := status, body
		mu.Unlock()
		w.WriteHeader(s)
		_, _ = w.Write(b)
	}))
	defer srv.Close()
	c, err := New(Config{Replicas: []string{srv.URL}, Timeout: 5 * time.Second, MaxRetries: -1})
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, code int, b []byte) {
		code = 200 + int(uint(code)%400)
		mu.Lock()
		status, body = code, b
		mu.Unlock()
		check := func(call string, err error) {
			t.Helper()
			if errors.Is(err, ErrDone) && (call != "suggest" || code >= 400) {
				t.Fatalf("%s answered %d: ErrDone", call, code)
			}
			if errors.Is(err, ErrNonePending) && (call != "suggest" || code != http.StatusConflict) {
				t.Fatalf("%s answered %d: ErrNonePending", call, code)
			}
		}
		_, err := c.Suggest(ctx, "s", 0)
		check("suggest", err)
		check("report", c.Report(ctx, "s", 1, []float64{1}))
		_, _, err = c.ReportFailure(ctx, "s", 1, "crashed")
		check("report failure", err)
		_, err = c.Status(ctx, "s")
		check("status", err)
		_, err = c.History(ctx, "s")
		check("history", err)
		_, err = c.Best(ctx, "s")
		check("best", err)
		_, err = c.Pareto(ctx, "s")
		check("pareto", err)
		_, err = c.Snapshot(ctx, "s")
		check("snapshot", err)
		_, err = c.Studies(ctx)
		check("studies", err)
		check("create", c.Create(ctx, testSpec("s", 4)))
		check("import", c.Import(ctx, StudyArchive{Spec: testSpec("s", 4)}))
	})
}
