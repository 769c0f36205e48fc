package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/gptune/api"
	"repro/internal/core"
	"repro/internal/histdb"
	"repro/internal/mpx"
)

// Config configures a Server.
type Config struct {
	// DataDir holds one spec file and one history WAL per study. Created if
	// missing; existing studies found there are resumed on startup.
	DataDir string
	// ModelSlots bounds how many studies run their modeling/search phase at
	// once (each still parallelizes internally over its own Workers option).
	// Default 1: concurrent studies interleave suggest calls but model one
	// at a time.
	ModelSlots int
	// MaxBodyBytes caps every request body but the import, whose cap is the
	// protocol's api.MaxImportBytes. Default api.DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Clock overrides the wall clock used for phase telemetry and WAL
	// stamps; nil means the real clock.
	Clock func() time.Time
}

// Server hosts tuning studies over HTTP. Each study wraps one core.Engine
// (which serializes itself), its spec persisted durably and every committed
// observation appended to a per-study WAL, so killing the process loses at
// most the evaluations that were still in flight.
type Server struct {
	cfg  Config
	gate *mpx.Gate

	// drain ends when BeginDrain or Close is called: health reports 503 and
	// parked suggests are released with one.
	drain      context.Context
	beginDrain context.CancelFunc
	// suggestWait bounds how long a suggest parks; tests shorten it.
	suggestWait time.Duration

	mu      sync.Mutex
	studies map[string]*study
	pending map[string]bool // names reserved by an in-flight admit (reserveName)
	closed  bool
}

// maxSuggestWait is how long a suggest may park on the engine before it is
// answered 409 and asks again: well under the client's 30 s default attempt
// timeout, so a healthy wait is never mistaken for a dead replica.
const maxSuggestWait = 10 * time.Second

type study struct {
	spec api.StudySpec
	eng  *core.Engine
	cp   *core.Checkpointer
}

// NewServer creates the data directory if needed and resumes every study
// whose spec file it finds there.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if cfg.ModelSlots <= 0 {
		cfg.ModelSlots = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = api.DefaultMaxBodyBytes
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, gate: mpx.NewGate(cfg.ModelSlots), suggestWait: maxSuggestWait, studies: make(map[string]*study), pending: make(map[string]bool)}
	s.drain, s.beginDrain = context.WithCancel(context.Background())
	if err := s.resumeAll(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Server) specPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+api.SpecSuffix)
}

func (s *Server) histPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+api.HistSuffix)
}

// resumeAll rebuilds every study found in the data directory, replaying its
// WAL through the engine's checkpoint-autofill path.
func (s *Server) resumeAll() error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), api.SpecSuffix); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(s.specPath(name))
		if err != nil {
			return err
		}
		var spec api.StudySpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("serve: parsing %s: %w", s.specPath(name), err)
		}
		if spec.Name != name {
			return fmt.Errorf("serve: spec file %s names study %q", s.specPath(name), spec.Name)
		}
		st, err := s.openStudy(spec)
		if err != nil {
			return fmt.Errorf("serve: resuming study %s: %w", name, err)
		}
		s.studies[name] = st
	}
	return nil
}

// openStudy builds the engine for a spec, wiring the shared modeling gate
// and a WAL-backed checkpointer (fresh or resumed — core.Resume treats a
// missing log as a fresh run).
func (s *Server) openStudy(spec api.StudySpec) (*study, error) {
	prob, tasks, opts, err := buildSpec(&spec)
	if err != nil {
		return nil, err
	}
	cp, err := core.Resume(s.histPath(spec.Name), core.CheckpointOptions{Problem: spec.Name, Clock: s.cfg.Clock})
	if err != nil {
		return nil, err
	}
	opts.Checkpoint = cp
	opts.ModelGate = s.gate
	opts.Clock = s.cfg.Clock
	eng, err := core.NewEngine(prob, tasks, opts)
	if err != nil {
		cp.Close()
		return nil, err
	}
	return &study{spec: spec, eng: eng, cp: cp}, nil
}

// BeginDrain flips /healthz to 503 without tearing anything down: existing
// studies keep serving, but a router health-checking the replica stops
// routing new work to it, and a suggest that would park — now or later — is
// answered 503 instead, so the connection drain never waits on one. Call it
// before http.Server.Shutdown so the health flip races ahead of the
// connection drain, not behind it.
func (s *Server) BeginDrain() { s.beginDrain() }

// Close flushes and closes every study's WAL. In-flight HTTP handlers should
// be drained first (http.Server.Shutdown) so no commit races the close.
func (s *Server) Close() error {
	// Snapshot under the lock, fsync+close outside it: once closed is set,
	// nothing inserts into studies (installStudy re-checks closed before
	// its insert), so the snapshot is complete and the WAL closes — which
	// block on file I/O — run without holding the server mutex.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	// Draining flips first: from here until the process exits, a health
	// probe must never report this replica routable — study teardown is
	// about to start.
	s.beginDrain()
	s.closed = true
	open := make([]*study, 0, len(s.studies))
	for _, st := range s.studies {
		open = append(open, st)
	}
	s.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].spec.Name < open[j].spec.Name })
	var first error
	for _, st := range open {
		// A suggest released by the drain or by its deadline leaves the
		// generation it started running with every handler gone; wait it out
		// before closing the WAL it streams model snapshots and autofilled
		// commits to.
		st.eng.Quiesce()
		if err := st.cp.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.RouteHealth, s.handleHealth)
	mux.HandleFunc(api.RouteCreate, s.handleCreate)
	mux.HandleFunc(api.RouteImport, s.handleImport)
	mux.HandleFunc(api.RouteList, s.handleList)
	mux.HandleFunc(api.RouteSnapshot, s.withStudy(s.handleSnapshot))
	mux.HandleFunc(api.RouteStatus, s.withStudy(caughtUp(s.handleStatus)))
	mux.HandleFunc(api.RouteSuggest, s.withStudy(s.handleSuggest))
	mux.HandleFunc(api.RouteReport, s.withStudy(s.handleReport))
	mux.HandleFunc(api.RouteBest, s.withStudy(caughtUp(s.handleBest)))
	mux.HandleFunc(api.RoutePareto, s.withStudy(caughtUp(s.handlePareto)))
	mux.HandleFunc(api.RouteHistory, s.withStudy(caughtUp(s.handleHistory)))
	return mux
}

// studyHandler is a handler for a study-scoped route.
type studyHandler func(http.ResponseWriter, *http.Request, *study)

// withStudy resolves the route's study for a study-scoped handler, answering
// 404 itself when there is none.
func (s *Server) withStudy(h studyHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue(api.StudyParam)
		s.mu.Lock()
		st, ok := s.studies[name]
		s.mu.Unlock()
		if !ok {
			api.WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no study %s", name))
			return
		}
		h(w, r, st)
	}
}

// caughtUp wraps a read route. The engine holds the only in-memory copy of a
// study's records and replays its log lazily — at the first suggest, which a
// finished study never gets — so a read first lets an engine that is behind
// its checkpoint catch up. A study that is not replaying waits on nothing.
func caughtUp(h studyHandler) studyHandler {
	return func(w http.ResponseWriter, r *http.Request, st *study) {
		if st.cp.Replaying() {
			st.eng.CatchUp()
		}
		h(w, r, st)
	}
}

// decodeBody strict-decodes a request body into v under the size cap.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	if err := api.DecodeBody(w, r, v, limit); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

// handleHealth reports the replica's routability. While draining (graceful
// shutdown has begun, or Close is mid-teardown) it answers 503 so a router
// health-checking this endpoint stops sending suggests that would land on
// closing WALs; a plain liveness probe should treat any HTTP answer as
// alive.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	studies := maps.Clone(s.studies)
	s.mu.Unlock()
	// Engine queries happen off the server mutex: Phase/Done take the
	// engine mutex but never block on a generation in flight.
	h := api.Health{Detail: make(map[string]api.HealthStudy, len(studies)), Status: "ok", Studies: len(studies)}
	for name, st := range studies {
		h.Detail[name] = api.HealthStudy{Phase: st.eng.Phase(), Done: st.eng.Done()}
	}
	code := http.StatusOK
	if s.drain.Err() != nil {
		h.Status, code = "draining", api.StatusDraining
	}
	api.WriteJSON(w, code, h)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec api.StudySpec
	if err := decodeBody(w, r, &spec, s.cfg.MaxBodyBytes); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if st := s.admit(w, &api.Archive{Spec: spec}); st != nil { // create = import of an empty archive
		api.WriteJSON(w, http.StatusCreated, api.Created{Name: spec.Name, Tasks: len(spec.Tasks)})
	}
}

// admit is the one way a study enters a running server: validate, reserve
// the name, land the archive's history (if any) and then the spec, open as
// a restart would, cross-check the logged count, install. On failure it
// writes the HTTP error, returns nil, and leaves the data directory as it
// found it — every file written or created on the way (the header-only log
// core.Resume makes included) is removed before the name is released.
func (s *Server) admit(w http.ResponseWriter, arc *api.Archive) (st *study) {
	if _, _, _, err := buildSpec(&arc.Spec); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return nil
	}
	name := arc.Spec.Name
	if !s.reserveName(w, name) {
		return nil
	}
	defer s.releaseName(name)
	defer func() {
		if st == nil {
			s.removeFiles(name)
		}
	}()
	// Nothing by this name is live, so what is on disk is a crash's leftover
	// that an archive without a snapshot or log must not adopt.
	s.removeFiles(name)

	// History lands before the spec: resumeAll keys on spec files, so a
	// crash between the writes leaves no half-admitted study to resume. The
	// spec on disk, not the client, is what rebuilds the engine afterwards.
	spec, err := api.EncodeSpec(&arc.Spec)
	hist := s.histPath(name)
	for _, f := range []struct {
		path string
		data []byte
	}{{hist, arc.Snapshot}, {histdb.WalPath(hist), arc.WAL}, {s.specPath(name), spec}} {
		if err == nil && len(f.data) > 0 {
			err = histdb.WriteFileDurable(f.path, f.data)
		}
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return nil
	}
	opened, err := s.openStudy(arc.Spec)
	if err != nil {
		// The spec is valid, so history that will not open is the archive's
		// fault; with no history the fault can only be the server's.
		code := http.StatusInternalServerError
		if len(arc.Snapshot)+len(arc.WAL) > 0 {
			code = http.StatusBadRequest
		}
		api.WriteError(w, code, fmt.Errorf("serve: opening study %s: %w", name, err))
		return nil
	}
	if got := opened.cp.Logged(); arc.Logged != 0 && got != arc.Logged {
		opened.cp.Close()
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: archive for %s claims %d logged evaluations but its WAL recovered %d", name, arc.Logged, got))
		return nil
	}
	if !s.installStudy(w, opened) {
		return nil
	}
	return opened
}

// removeFiles deletes a study's files, spec first, so a crash partway leaves
// history nobody resumes rather than a spec over half a history. Errors are
// dropped: a file that is not there is the goal, and one that will not go
// fails the write or the open that follows.
func (s *Server) removeFiles(name string) {
	hist := s.histPath(name)
	for _, p := range []string{s.specPath(name), hist, histdb.WalPath(hist)} {
		os.Remove(p)
	}
}

// reserveName reserves a study name for an in-flight admit under the server
// lock, so the durable writes and WAL open can happen outside
// it: the reservation keeps a concurrent duplicate from passing the exists
// check mid-I/O while distinct names proceed in parallel. On failure it
// writes the HTTP error (503 shutting down, 409 duplicate) and returns
// false. A true return must be paired with releaseName.
func (s *Server) reserveName(w http.ResponseWriter, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		api.WriteError(w, api.StatusDraining, errShuttingDown)
		return false
	}
	if _, exists := s.studies[name]; exists || s.pending[name] {
		api.WriteError(w, api.StatusConflict, fmt.Errorf("serve: study %s already exists", name))
		return false
	}
	s.pending[name] = true
	return true
}

var errShuttingDown = errors.New("serve: server is shutting down")

func (s *Server) releaseName(name string) {
	s.mu.Lock()
	delete(s.pending, name)
	s.mu.Unlock()
}

// installStudy inserts an opened study under the lock, re-checking closed:
// if Close ran while the study was being opened, its teardown snapshot
// cannot contain this study, so close its WAL rather than leak an open log
// (the caller removes the files). Writes the HTTP error and returns false on
// that race.
func (s *Server) installStudy(w http.ResponseWriter, st *study) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		st.cp.Close()
		api.WriteError(w, api.StatusDraining, errShuttingDown)
		return false
	}
	s.studies[st.spec.Name] = st
	s.mu.Unlock()
	return true
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.studies))
	for name := range s.studies {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	api.WriteJSON(w, http.StatusOK, api.StudyList{Studies: names})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, st *study) {
	res := st.eng.Result()
	obs := 0
	for _, t := range res.Tasks {
		obs += len(t.Y)
	}
	status := api.Status{
		Name:         st.spec.Name,
		Surrogate:    st.eng.Surrogate(),
		Phase:        st.eng.Phase(),
		Tasks:        len(res.Tasks),
		Observations: obs,
		Logged:       st.cp.Logged(),
		Done:         st.eng.Done(),
	}
	if err := st.eng.Err(); err != nil {
		status.Error = err.Error()
	}
	api.WriteJSON(w, http.StatusOK, status)
}

func wireSuggestion(sg core.Suggestion) *api.Suggestion {
	return &api.Suggestion{ID: sg.ID, Task: sg.Task, Phase: sg.Phase, X: sg.X}
}

// handleSuggest parks on the engine until it has something to hand out: the
// configuration, or done. The wait ends early three ways — the client hangs
// up (nobody reads the answer), the replica drains (503: ask whoever serves
// the study next), or suggestWait passes with the batch still waiting on
// other evaluators' reports (409, ask again at once: the wait resumes).
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request, st *study) {
	req := api.SuggestRequest{Task: -1}
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Task < -1 || req.Task >= len(st.spec.Tasks) {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: task %d out of range (study has %d tasks)", req.Task, len(st.spec.Tasks)))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.suggestWait)
	defer cancel()
	stop := context.AfterFunc(s.drain, cancel)
	defer stop()
	sg, err := st.eng.SuggestContext(ctx, req.Task)
	switch {
	case err == nil:
		api.WriteJSON(w, http.StatusOK, api.SuggestResponse{Suggestion: wireSuggestion(sg)})
	case errors.Is(err, core.ErrDone):
		api.WriteJSON(w, http.StatusOK, api.SuggestResponse{Done: true})
	case errors.Is(err, core.ErrNonePending) && s.drain.Err() != nil:
		api.WriteError(w, api.StatusDraining, errShuttingDown)
	case errors.Is(err, core.ErrNonePending):
		w.Header().Set(api.RetryAfterHeader, api.FormatRetryAfter(0))
		api.WriteError(w, api.StatusConflict, err)
	default:
		api.WriteError(w, statusFor(err), err)
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, st *study) {
	var req api.ReportRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Failed {
		var cause error
		if req.Error != "" {
			cause = errors.New(req.Error)
		}
		next, err := st.eng.Fail(req.ID, cause)
		switch {
		case err == nil:
			api.WriteJSON(w, http.StatusOK, api.ReportResponse{OK: true, Retry: wireSuggestion(next)})
		case errors.Is(err, core.ErrTerminalFailure):
			api.WriteJSON(w, http.StatusOK, api.ReportResponse{OK: false, Terminal: true, Error: err.Error()})
		default:
			api.WriteError(w, statusFor(err), err)
		}
		return
	}
	if err := st.eng.Observe(req.ID, req.Y); err != nil {
		api.WriteError(w, statusFor(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.ReportResponse{OK: true})
}

// statusFor maps engine errors onto HTTP codes via the typed sentinels core
// exports: an unknown suggestion ID is the client's 404, a structurally
// invalid observation its 400, and everything else (checkpoint IO, modeling
// failures) the server's 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrUnknownSuggestion):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadObservation):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request, st *study) {
	res := st.eng.Result()
	out := make([]api.TaskHistory, len(res.Tasks))
	for i, t := range res.Tasks {
		out[i] = api.TaskHistory{Task: t.Task, X: t.X, Y: t.Y}
	}
	api.WriteJSON(w, http.StatusOK, api.History{Phase: st.eng.Phase(), Surrogate: st.eng.Surrogate(), Tasks: out})
}

func (s *Server) handleBest(w http.ResponseWriter, _ *http.Request, st *study) {
	res := st.eng.Result()
	out := make([]api.BestEntry, len(res.Tasks))
	for i, t := range res.Tasks {
		out[i] = api.BestEntry{Task: t.Task}
		out[i].X, out[i].Y = t.Best()
	}
	api.WriteJSON(w, http.StatusOK, api.Best{Tasks: out})
}

func (s *Server) handlePareto(w http.ResponseWriter, _ *http.Request, st *study) {
	res := st.eng.Result()
	out := make([]api.TaskHistory, len(res.Tasks))
	for i, t := range res.Tasks {
		out[i] = api.TaskHistory{Task: t.Task, X: [][]float64{}, Y: [][]float64{}}
		for _, idx := range t.ParetoFront() {
			out[i].X = append(out[i].X, t.X[idx])
			out[i].Y = append(out[i].Y, t.Y[idx])
		}
	}
	api.WriteJSON(w, http.StatusOK, api.Pareto{Tasks: out})
}
