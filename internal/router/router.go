// Package router is the thin consistent-hash proxy in front of a set of
// gptuned replicas: dumb clients (curl, non-Go stacks, the bench harness in
// cluster mode) talk to one address and the router forwards each
// study-scoped request to the study's rendezvous owner (internal/ring) on
// the *healthy* subset of the replica set. A background probe loop health-
// checks every replica's /healthz and ejects nodes that fail repeatedly —
// gptuned's draining 503 (graceful shutdown in progress) ejects a replica
// just like a dead TCP connection does, so rolling restarts drain traffic
// before the WALs close.
//
// The router holds no study state: placement is a pure function of the
// healthy node set and the study name, the same function the gptune/client
// package computes client-side. Re-homing a study after a replica loss is
// the operator's (or test harness's) move — snapshot-import the dead node's
// WAL onto a survivor through POST /studies/import, which the router routes
// by the archive's study name exactly like a create.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"

	"repro/gptune/api"
	"repro/internal/mpx"
	"repro/internal/ring"
)

// Config configures a Router.
type Config struct {
	// Replicas lists gptuned base URLs ("http://host:port"). Required.
	Replicas []string
	// ProbeEvery is the health-probe period. Default 1s.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe request. Default 2s.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures eject a replica.
	// A single success re-admits it. Default 3.
	FailThreshold int
}

// Router proxies the gptuned API across replicas. Build with New, serve
// Handler, and call Start to begin health probing (Stop to halt it).
type Router struct {
	cfg     Config
	all     *ring.Ring
	proxies map[string]*httputil.ReverseProxy
	probeHC *http.Client

	mu       sync.Mutex
	failures map[string]int // consecutive probe or proxy failures per replica; FailThreshold of them eject it

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a router over the replica set.
func New(cfg Config) (*Router, error) {
	all := ring.New(cfg.Replicas...)
	if all.Len() == 0 {
		return nil, errors.New("router: Config.Replicas is required")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	rt := &Router{
		cfg:      cfg,
		all:      all,
		proxies:  make(map[string]*httputil.ReverseProxy, all.Len()),
		probeHC:  &http.Client{Timeout: cfg.ProbeTimeout},
		failures: make(map[string]int),
		stop:     make(chan struct{}),
	}
	buffers := &bufferPool{}
	for _, rep := range all.Nodes() {
		target, err := url.Parse(rep)
		if err != nil {
			return nil, fmt.Errorf("router: replica %q: %w", rep, err)
		}
		rep := rep
		rt.proxies[rep] = &httputil.ReverseProxy{
			Rewrite:    func(pr *httputil.ProxyRequest) { pr.SetURL(target) },
			BufferPool: buffers,
			// A proxy error is evidence as strong as a failed probe: count
			// it toward ejection immediately instead of waiting for the
			// probe loop to notice, and answer 503 (not the default 502) so
			// the retrying client treats it like any draining replica.
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				rt.recordFailure(rep)
				writeUnavailable(w, fmt.Errorf("router: replica unavailable: %s", rep))
			},
		}
	}
	return rt, nil
}

// bufferPool lends the proxies the buffers they copy response bodies
// through; a ReverseProxy without a BufferPool allocates 32 KiB per response.
type bufferPool struct{ p sync.Pool }

func (bp *bufferPool) Get() []byte {
	if b, ok := bp.p.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, 32<<10)
}

func (bp *bufferPool) Put(b []byte) { bp.p.Put(&b) }

// Start launches the background health-probe loop.
func (rt *Router) Start() {
	mpx.Go(&rt.wg, rt.probeLoop)
}

// Stop halts the probe loop and waits for it.
func (rt *Router) Stop() {
	close(rt.stop)
	rt.wg.Wait()
}

func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			for _, rep := range rt.all.Nodes() {
				rt.probe(rep)
			}
		}
	}
}

// probe health-checks one replica: any 200 /healthz re-admits it, anything
// else (error, non-200 — including gptuned's draining 503) counts toward
// ejection.
func (rt *Router) probe(rep string) {
	resp, err := rt.probeHC.Get(rep + api.HealthPath)
	if err == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			rt.mu.Lock()
			rt.failures[rep] = 0
			rt.mu.Unlock()
			return
		}
	}
	rt.recordFailure(rep)
}

func (rt *Router) recordFailure(rep string) {
	rt.mu.Lock()
	rt.failures[rep]++
	rt.mu.Unlock()
}

func (rt *Router) healthyRing() *ring.Ring {
	rt.mu.Lock()
	var dead []string
	for rep, n := range rt.failures {
		if n >= rt.cfg.FailThreshold {
			dead = append(dead, rep)
		}
	}
	rt.mu.Unlock()
	return rt.all.Without(dead...)
}

// Handler returns the router's HTTP surface: the full gptuned API routed by
// study name, plus the router's own /healthz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.RouteHealth, rt.handleHealth)
	mux.HandleFunc(api.RouteList, rt.handleList)
	mux.HandleFunc(api.RouteCreate, rt.handleCreate)
	mux.HandleFunc(api.RouteImport, rt.handleImport)
	mux.HandleFunc(api.RouteStudy, rt.handleStudy)
	mux.HandleFunc(api.RouteStudyVerb, rt.handleStudy)
	return mux
}

// writeUnavailable answers StatusDraining with a one-second retry hint: the
// retrying client treats a lost or absent replica like a draining one.
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set(api.RetryAfterHeader, api.FormatRetryAfter(time.Second))
	api.WriteError(w, api.StatusDraining, err)
}

// forward proxies the request to the healthy owner of study.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, study string) {
	owner, ok := rt.healthyRing().Owner(study)
	if !ok {
		writeUnavailable(w, errNoReplicas)
		return
	}
	rt.proxies[owner].ServeHTTP(w, r)
}

var errNoReplicas = errors.New("router: no healthy replicas")

func (rt *Router) handleStudy(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, r.PathValue(api.StudyParam))
}

// handleCreate and handleImport read the study name out of the buffered
// body, restore the body, and forward to the name's owner — the two places
// the router must read a payload to route it.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec api.StudySpec
	if rt.peekBody(w, r, &spec) {
		rt.forward(w, r, spec.Name)
	}
}

func (rt *Router) handleImport(w http.ResponseWriter, r *http.Request) {
	var arc api.Archive
	if rt.peekBody(w, r, &arc) {
		rt.forward(w, r, arc.Spec.Name)
	}
}

// peekBody buffers the request body (capped), decodes it into v leniently
// (unknown fields are the replica's to reject), and replaces r.Body so the
// proxy forwards the full payload. Returns false with the HTTP error written
// when the body is unreadable or does not decode.
func (rt *Router) peekBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxImportBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("router: reading body: %w", err))
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("router: body is not JSON: %w", err))
		return false
	}
	r.Body = io.NopCloser(bytes.NewReader(data))
	r.ContentLength = int64(len(data))
	return true
}

// handleList fans GET /studies out to every healthy replica and merges the
// names — the one read that spans the cluster. A replica that fails or
// answers other than 200 counts toward its ejection and adds nothing; the
// list is 502 only when no replica answered.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	healthy := rt.healthyRing().Nodes()
	if len(healthy) == 0 {
		writeUnavailable(w, errNoReplicas)
		return
	}
	all, err := api.MergeStudyLists(healthy, func(rep string) (api.StudyList, error) {
		var body api.StudyList
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rep+api.StudiesPath, nil)
		if err != nil {
			return body, err
		}
		resp, err := rt.probeHC.Do(req)
		if err != nil {
			rt.recordFailure(rep)
			return body, err
		}
		if resp.StatusCode != http.StatusOK {
			rt.recordFailure(rep)
			err = fmt.Errorf("replica %s answered %s", rep, resp.Status)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&body)
		}
		// Read to EOF, past the decoded value, so the connection is pooled again.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return body, err
	})
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("router: listing studies: %w", err))
		return
	}
	api.WriteJSON(w, http.StatusOK, all)
}

// handleHealth reports the router's own view: 200 while at least one
// replica is routable, 503 otherwise.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := api.RouterHealth{Replicas: make(map[string]api.ReplicaHealth, rt.all.Len()), Status: "ok"}
	rt.mu.Lock()
	for _, rep := range rt.all.Nodes() {
		up := rt.failures[rep] < rt.cfg.FailThreshold
		if up {
			h.Healthy++
		}
		h.Replicas[rep] = api.ReplicaHealth{Healthy: up, Failures: rt.failures[rep]}
	}
	rt.mu.Unlock()
	code := http.StatusOK
	if h.Healthy == 0 {
		code, h.Status = api.StatusDraining, "no healthy replicas"
	}
	api.WriteJSON(w, code, h)
}
