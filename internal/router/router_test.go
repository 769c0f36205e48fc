package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/gptune/api"
	"repro/gptune/client"
	"repro/internal/apps/analytical"
	"repro/internal/histdb"
	"repro/internal/ring"
	"repro/internal/serve"
)

// paperObjective is Eq. (11), shared from the analytical app.
var paperObjective = analytical.Objective

var testTasks = [][]float64{{0}, {1.5}, {3}}

func testSpec(name string, epsTot int, seed int64) client.StudySpec {
	return client.StudySpec{
		Name:       name,
		TaskParams: []client.ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []client.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y"},
		Tasks:      testTasks,
		Options:    client.OptionsSpec{EpsTot: epsTot, Seed: seed, Workers: 1},
	}
}

// replica is one in-process gptuned: a serve.Server with its own data dir
// behind an httptest listener.
type replica struct {
	srv  *serve.Server
	hs   *httptest.Server
	dir  string
	dead bool
}

func startReplica(t *testing.T) *replica {
	t.Helper()
	dir := t.TempDir()
	s, err := serve.NewServer(serve.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	rep := &replica{srv: s, hs: hs, dir: dir}
	t.Cleanup(func() {
		if !rep.dead {
			rep.hs.Close()
			rep.srv.Close()
		}
	})
	return rep
}

// kill simulates a hard replica loss (the PR-4 SIGKILL style, in-process):
// the listener and every live connection close abruptly, and the
// serve.Server is never Close()d — no flush, no Quiesce, no teardown. What
// is on disk is exactly what fsync already put there, which is the
// crash-consistency the WAL guarantees.
func (r *replica) kill() {
	r.dead = true
	r.hs.Listener.Close()
	r.hs.CloseClientConnections()
}

// archiveFromDisk rebuilds a study's transfer archive from a dead replica's
// data directory — the operator's recovery path when the process is gone
// and GET /snapshot can't answer.
func archiveFromDisk(t *testing.T, dir, study string) client.StudyArchive {
	t.Helper()
	histPath := filepath.Join(dir, study+api.HistSuffix)
	specData, err := os.ReadFile(filepath.Join(dir, study+api.SpecSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var spec client.StudySpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		t.Fatal(err)
	}
	arc := client.StudyArchive{Spec: spec}
	if snap, err := os.ReadFile(histPath); err == nil {
		arc.Snapshot = snap
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(histdb.WalPath(histPath))
	if err != nil {
		t.Fatal(err)
	}
	arc.WAL = wal
	return arc
}

func startRouter(t *testing.T, reps ...*replica) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.hs.URL
	}
	rt, err := New(Config{Replicas: urls, ProbeEvery: 20 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { hs.Close(); rt.Stop() })
	return rt, hs
}

func newClient(t *testing.T, base string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		Replicas:    []string{base},
		Timeout:     10 * time.Second,
		MaxRetries:  8,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		JitterSeed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drive runs the suggest/evaluate/report loop through a client until the
// budget is exhausted (maxCycles < 0) or maxCycles evaluations were paid.
func drive(t *testing.T, c *client.Client, study string, maxCycles int) int {
	t.Helper()
	ctx := context.Background()
	paid := 0
	for maxCycles < 0 || paid < maxCycles {
		sg, err := c.Suggest(ctx, study, -1)
		if errors.Is(err, client.ErrDone) {
			break
		}
		if errors.Is(err, client.ErrNonePending) {
			continue
		}
		if err != nil {
			t.Fatalf("suggest: %v", err)
		}
		y := paperObjective(testTasks[sg.Task][0], sg.X[0])
		if err := c.Report(ctx, study, sg.ID, []float64{y}); err != nil {
			t.Fatalf("report: %v", err)
		}
		paid++
	}
	return paid
}

// TestPlacementMatchesRing: studies created through the router land on
// exactly their rendezvous owner, and GET /studies through the router
// merges all replicas' listings.
func TestPlacementMatchesRing(t *testing.T) {
	a, b := startReplica(t), startReplica(t)
	_, rhs := startRouter(t, a, b)
	c := newClient(t, rhs.URL)
	rg := ring.New(a.hs.URL, b.hs.URL)

	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	ctx := context.Background()
	for _, n := range names {
		if err := c.Create(ctx, testSpec(n, 4, 5)); err != nil {
			t.Fatalf("create %s: %v", n, err)
		}
	}
	// Ask each replica directly who it hosts.
	hosts := func(rep *replica) map[string]bool {
		resp, err := http.Get(rep.hs.URL + api.StudiesPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body api.StudyList
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, s := range body.Studies {
			out[s] = true
		}
		return out
	}
	onA, onB := hosts(a), hosts(b)
	for _, n := range names {
		owner, _ := rg.Owner(n)
		wantA := owner == a.hs.URL
		if onA[n] != wantA || onB[n] == wantA {
			t.Fatalf("study %s: owner %s but hosted a=%v b=%v", n, owner, onA[n], onB[n])
		}
	}
	// The router's merged list sees every study regardless of placement.
	merged, err := c.Studies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(names) {
		t.Fatalf("router list: %v, want %d studies", merged, len(names))
	}
}

// TestEjectionAndRouterHealth: a dead replica is ejected by the probe loop,
// the router's /healthz reports it, and with every replica dead the router
// answers 503.
func TestEjectionAndRouterHealth(t *testing.T) {
	a, b := startReplica(t), startReplica(t)
	rt, rhs := startRouter(t, a, b)

	waitHealthy := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if len(rt.healthyRing().Nodes()) == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("router never settled at %d healthy replicas (have %v)", want, rt.healthyRing().Nodes())
	}
	waitHealthy(2)
	a.kill()
	waitHealthy(1)
	if got := rt.healthyRing().Nodes(); len(got) != 1 || got[0] != b.hs.URL {
		t.Fatalf("healthy after kill: %v", got)
	}
	resp, err := http.Get(rhs.URL + api.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	var h api.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Healthy != 1 || h.Replicas[a.hs.URL].Healthy {
		t.Fatalf("router health after kill: %d %+v", resp.StatusCode, h)
	}

	b.kill()
	waitHealthy(0)
	resp, err = http.Get(rhs.URL + api.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router health with no replicas: %d, want 503", resp.StatusCode)
	}
}

// TestReplicaKillRecoveryBitwise is the PR's acceptance test: a study
// created through the router survives the hard kill of its home replica.
// The dead node's on-disk WAL (crash-consistent by construction) is
// archived and imported through the router onto the survivor, which resumes
// with bitwise-identical history and re-pays zero logged evaluations.
func TestReplicaKillRecoveryBitwise(t *testing.T) {
	const study, epsTot, seed = "recovery", 8, 13

	// Reference: an uninterrupted run of the same spec on one server.
	ref := startReplica(t)
	refC := newClient(t, ref.hs.URL)
	if err := refC.Create(context.Background(), testSpec(study, epsTot, seed)); err != nil {
		t.Fatal(err)
	}
	refPaid := drive(t, refC, study, -1)
	refHist, err := refC.History(context.Background(), study)
	if err != nil {
		t.Fatal(err)
	}

	// Cluster: two replicas behind the router.
	a, b := startReplica(t), startReplica(t)
	rt, rhs := startRouter(t, a, b)
	c := newClient(t, rhs.URL)
	ctx := context.Background()
	if err := c.Create(ctx, testSpec(study, epsTot, seed)); err != nil {
		t.Fatal(err)
	}
	// Which replica is home?
	rg := ring.New(a.hs.URL, b.hs.URL)
	owner, _ := rg.Owner(study)
	home, survivor := a, b
	if owner == b.hs.URL {
		home, survivor = b, a
	}

	firstPaid := drive(t, c, study, 7)
	home.kill()

	// Wait for ejection so the import routes to the survivor.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := rt.healthyRing().Nodes()
		if len(h) == 1 && h[0] == survivor.hs.URL {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Re-home from the dead node's disk. Every evaluation the client paid
	// was acked only after its WAL append fsync'd, so the files hold all
	// of them.
	arc := archiveFromDisk(t, home.dir, study)
	if err := c.Import(ctx, arc); err != nil {
		t.Fatalf("import onto survivor: %v", err)
	}
	st, err := c.Status(ctx, study)
	if err != nil {
		t.Fatal(err)
	}
	if st.Logged != firstPaid {
		t.Fatalf("survivor recovered %d logged evaluations, client paid %d before the kill", st.Logged, firstPaid)
	}

	secondPaid := drive(t, c, study, -1)
	if firstPaid+secondPaid != refPaid {
		t.Fatalf("paid %d+%d evaluations across the kill, uninterrupted run paid %d — logged work was re-paid",
			firstPaid, secondPaid, refPaid)
	}
	gotHist, err := c.History(ctx, study)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(refHist)
	bj, _ := json.Marshal(gotHist)
	if string(aj) != string(bj) {
		t.Fatalf("recovered history differs from the uninterrupted run\nref: %s\ngot: %s", aj, bj)
	}
}

// TestProxyErrorBodyEscapesReplicaURL: the 503 a failed forward answers
// carries the replica's URL, and must stay a decodable Error body whatever
// that URL contains — it was once interpolated into a JSON literal by hand,
// so a quote in the URL produced a body no client could parse.
func TestProxyErrorBodyEscapesReplicaURL(t *testing.T) {
	const rep = `http://127.0.0.1:1/"quoted"\path`
	rt, err := New(Config{Replicas: []string{rep}})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, httptest.NewRequest("GET", api.StudyPath("s", ""), nil))
	if rr.Code != api.StatusDraining {
		t.Fatalf("forward to a dead replica: status %d, want 503", rr.Code)
	}
	if d, ok := api.ParseRetryAfter(rr.Header().Get(api.RetryAfterHeader)); !ok || d != time.Second {
		t.Errorf("Retry-After %q, want one second", rr.Header().Get(api.RetryAfterHeader))
	}
	var body api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("503 body %q is not JSON: %v", rr.Body.String(), err)
	}
	if want := "router: replica unavailable: " + rep; body.Error != want {
		t.Errorf("error %q, want %q", body.Error, want)
	}
}

// TestListSkipsAnUnreachableReplica: a live replica with no studies answers,
// so the list is 200 and empty although the other replica is unreachable.
func TestListSkipsAnUnreachableReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := New(Config{Replicas: []string{startReplica(t).hs.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, httptest.NewRequest("GET", api.StudiesPath, nil))
	if rr.Code != http.StatusOK || rr.Body.String() != "{\"studies\":[]}\n" {
		t.Fatalf("list: %d %s, want 200 {\"studies\":[]}", rr.Code, rr.Body)
	}
}

// TestListTreatsAnErrorAnswerAsFailed: a replica that answers GET /studies
// with 500 and an error body is a failed replica, not one with no studies.
// Alone it makes the list 502; beside a replica that answers, the list is
// that replica's; and each error answer counts toward its ejection.
func TestListTreatsAnErrorAnswerAsFailed(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		api.WriteError(w, http.StatusInternalServerError, errors.New("store offline"))
	}))
	defer broken.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.StudyList{Studies: []string{"a", "b"}})
	}))
	defer live.Close()
	list := func(rt *Router) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rr, httptest.NewRequest("GET", api.StudiesPath, nil))
		return rr
	}

	alone, err := New(Config{Replicas: []string{broken.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if rr := list(alone); rr.Code != http.StatusBadGateway {
		t.Fatalf("list over an erroring replica alone: %d %s, want 502", rr.Code, rr.Body)
	}

	rt, err := New(Config{Replicas: []string{broken.URL, live.URL}, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rr := list(rt); rr.Code != http.StatusOK || rr.Body.String() != "{\"studies\":[\"a\",\"b\"]}\n" {
			t.Fatalf("list %d: %d %s, want 200 {\"studies\":[\"a\",\"b\"]}", i, rr.Code, rr.Body)
		}
	}
	if h := rt.healthyRing().Nodes(); len(h) != 1 || h[0] != live.URL {
		t.Fatalf("healthy after two error answers: %v, want only %s", h, live.URL)
	}
}

// BenchmarkForward is one small JSON read through the router: client →
// router → a replica that answers a fixed body, over keep-alive connections.
func BenchmarkForward(b *testing.B) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.Best{Tasks: []api.BestEntry{{Task: []float64{0}, X: []float64{0.5}, Y: []float64{1.25}}}})
	}))
	defer rep.Close()
	rt, err := New(Config{Replicas: []string{rep.URL}})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	c, err := client.New(client.Config{Replicas: []string{hs.URL}, Timeout: 10 * time.Second, JitterSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Best(ctx, "s"); err != nil {
			b.Fatal(err)
		}
	}
}
