// Package client is the typed Go client for the gptuned HTTP API. It speaks
// the full surface — create, suggest, report, best, pareto, history, status,
// snapshot export/import — over a reused connection pool with per-call
// timeouts and bounded exponential backoff, and it surfaces the engine's
// sentinel conditions as the same error values the in-process API uses:
// errors.Is(err, client.ErrDone) and errors.Is(err, client.ErrNonePending)
// hold exactly when they would against a local core.Engine, so the
// suggest/evaluate/report loop is written once and runs against either.
//
// Given more than one replica, the client consistent-hash routes every
// study-scoped call to the study's owner (internal/ring, rendezvous
// hashing): any client or router configured with the same replica set
// computes the same owner with no coordination. Cluster-scoped calls
// (Studies) fan out and merge.
package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/gptune"
	"repro/gptune/api"
	"repro/internal/ring"
	"repro/internal/rng"
)

// The wire shapes are the protocol package's; these names predate it.
type (
	StudySpec    = api.StudySpec
	ParamSpec    = api.ParamSpec
	OptionsSpec  = api.OptionsSpec
	Suggestion   = api.Suggestion
	Status       = api.Status
	TaskHistory  = api.TaskHistory
	BestEntry    = api.BestEntry
	StudyArchive = api.Archive
)

// ErrDone and ErrNonePending are aliases of the facade's sentinels (which
// are themselves core's): a remote study reports budget exhaustion and
// nothing-pending through the same values a local Engine returns.
var (
	ErrDone        = gptune.ErrDone
	ErrNonePending = gptune.ErrNonePending
)

// APIError is a non-sentinel server response: the HTTP status plus the
// error string from the JSON body. Suggest/Report map the sentinel cases
// (done, none-pending) before this surfaces, so an APIError always means
// something genuinely went wrong (bad spec, unknown study, server fault).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gptuned: %s (HTTP %d)", e.Message, e.Status)
}

// Config configures a Client.
type Config struct {
	// Replicas lists the gptuned base URLs ("http://host:port"). One
	// replica means no routing; more mean study-scoped calls go to the
	// study's consistent-hash owner. Required.
	Replicas []string
	// HTTPClient overrides the transport; nil builds one http.Client shared
	// by every call, so connections are pooled and reused.
	HTTPClient *http.Client
	// Timeout bounds each HTTP attempt (not the whole retry loop).
	// Default 30s — a suggest waits on the server through a modeling phase
	// and through the other evaluators' reports its batch needs, up to the
	// server's own 10 s bound on that wait; keep Timeout above it.
	Timeout time.Duration
	// MaxRetries bounds retries after the first attempt. Default 4.
	MaxRetries int
	// BaseBackoff is the first retry delay, doubled per retry up to
	// MaxBackoff, each draw jittered uniformly over [½d, d). Defaults
	// 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter. Zero draws a seed per client
	// from crypto/rand, so clients released together by one 503 do not
	// retry in lockstep; a non-zero seed (tests pin one) is used as-is.
	JitterSeed int64
}

// Client is a gptuned API client. Safe for concurrent use.
type Client struct {
	cfg  Config
	ring *ring.Ring
	hc   *http.Client

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// New builds a client over one or more gptuned replicas.
func New(cfg Config) (*Client, error) {
	r := ring.New(cfg.Replicas...)
	if r.Len() == 0 {
		return nil, errors.New("client: Config.Replicas is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	if cfg.JitterSeed == 0 {
		var b [8]byte
		crand.Read(b[:]) // never fails: it crashes the program first
		cfg.JitterSeed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	return &Client{cfg: cfg, ring: r, hc: hc, rng: rng.New(cfg.JitterSeed, rng.Jitter)}, nil
}

// Owner returns the replica base URL a study routes to.
func (c *Client) Owner(study string) string {
	o, _ := c.ring.Owner(study)
	return o
}

// Create registers a new study on its owning replica.
func (c *Client) Create(ctx context.Context, spec StudySpec) error {
	return c.call(ctx, http.MethodPost, c.Owner(spec.Name), api.StudiesPath, spec, nil, false)
}

// Suggest asks the study's replica for the next configuration of task
// (task = -1 means any). Semantics mirror core.Engine.Suggest: ErrDone when
// the budget is exhausted, ErrNonePending when no configuration became
// available — the server holds each attempt until one does or its bound on
// the wait passes, so this is the retry budget times that bound.
func (c *Client) Suggest(ctx context.Context, study string, task int) (Suggestion, error) {
	var resp api.SuggestResponse
	err := c.call(ctx, http.MethodPost, c.Owner(study), api.StudyPath(study, api.VerbSuggest),
		api.SuggestRequest{Task: task}, &resp, true)
	if err != nil {
		return Suggestion{}, err
	}
	if resp.Done {
		return Suggestion{}, ErrDone
	}
	if resp.Suggestion == nil {
		return Suggestion{}, &APIError{Status: http.StatusOK, Message: "suggest response carries neither a suggestion nor done"}
	}
	return *resp.Suggestion, nil
}

// Report delivers a measurement for a suggestion ID.
func (c *Client) Report(ctx context.Context, study string, id int64, y []float64) error {
	var resp api.ReportResponse
	err := c.call(ctx, http.MethodPost, c.Owner(study), api.StudyPath(study, api.VerbReport),
		api.ReportRequest{ID: id, Y: y}, &resp, false)
	if err != nil {
		return err
	}
	if !resp.OK {
		return &APIError{Status: http.StatusOK, Message: "report not acknowledged: " + resp.Error}
	}
	return nil
}

// ReportFailure tells the server an evaluation errored. The server may hand
// back a substitute configuration under the same ID; terminal=true means
// the configuration failed for good.
func (c *Client) ReportFailure(ctx context.Context, study string, id int64, cause string) (retry *Suggestion, terminal bool, err error) {
	var resp api.ReportResponse
	err = c.call(ctx, http.MethodPost, c.Owner(study), api.StudyPath(study, api.VerbReport),
		api.ReportRequest{ID: id, Failed: true, Error: cause}, &resp, false)
	if err != nil {
		return nil, false, err
	}
	return resp.Retry, resp.Terminal, nil
}

// Status fetches a study's progress.
func (c *Client) Status(ctx context.Context, study string) (Status, error) {
	var st Status
	err := c.call(ctx, http.MethodGet, c.Owner(study), api.StudyPath(study, ""), nil, &st, false)
	return st, err
}

// History fetches a study's full evaluation history per task.
func (c *Client) History(ctx context.Context, study string) ([]TaskHistory, error) {
	var resp api.History
	err := c.call(ctx, http.MethodGet, c.Owner(study), api.StudyPath(study, api.VerbHistory), nil, &resp, false)
	return resp.Tasks, err
}

// Best fetches each task's incumbent for objective 0.
func (c *Client) Best(ctx context.Context, study string) ([]BestEntry, error) {
	var resp api.Best
	err := c.call(ctx, http.MethodGet, c.Owner(study), api.StudyPath(study, api.VerbBest), nil, &resp, false)
	return resp.Tasks, err
}

// Pareto fetches each task's non-dominated set.
func (c *Client) Pareto(ctx context.Context, study string) ([]TaskHistory, error) {
	var resp api.Pareto
	err := c.call(ctx, http.MethodGet, c.Owner(study), api.StudyPath(study, api.VerbPareto), nil, &resp, false)
	return resp.Tasks, err
}

// Snapshot exports a study from the replica holding it for migration.
func (c *Client) Snapshot(ctx context.Context, study string) (StudyArchive, error) {
	var arc StudyArchive
	err := c.call(ctx, http.MethodGet, c.Owner(study), api.StudyPath(study, api.VerbSnapshot), nil, &arc, false)
	return arc, err
}

// Import re-homes an archived study onto its ring owner.
func (c *Client) Import(ctx context.Context, arc StudyArchive) error {
	return c.call(ctx, http.MethodPost, c.Owner(arc.Spec.Name), api.ImportPath, arc, nil, false)
}

// Studies lists study names across every replica, merged and sorted. It
// fails only when no replica answered: an unreachable replica's studies are
// missing from the list, not an error.
func (c *Client) Studies(ctx context.Context) ([]string, error) {
	all, err := api.MergeStudyLists(c.ring.Nodes(), func(rep string) (api.StudyList, error) {
		var l api.StudyList
		err := c.call(ctx, http.MethodGet, rep, api.StudiesPath, nil, &l, false)
		return l, err
	})
	return all.Studies, err
}

// call runs one API call with the retry policy: transport errors and 503s
// (a draining or restarting replica) always retry; 409 retries only when
// retry409 is set (suggest's none-pending: the server waited as long as it
// allows one request to and asking again resumes the wait — on create/import
// a 409 is a duplicate study and retrying cannot help). Each attempt gets its
// own Timeout.
// Exhausting the budget on a 409 returns ErrNonePending; on a 503 or
// transport error, the last underlying error.
func (c *Client) call(ctx context.Context, method, replica, path string, in, out any, retry409 bool) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, retryAfter, errMsg, err := c.attempt(ctx, method, replica, path, in, out)
		switch {
		case err == nil && status < 400:
			return nil
		case err == nil && status == api.StatusConflict && retry409:
			lastErr = ErrNonePending
		case err == nil && status == api.StatusDraining:
			lastErr = &APIError{Status: status, Message: errMsg}
		case err == nil:
			return &APIError{Status: status, Message: errMsg}
		default:
			// Transport error (connection refused/reset, timeout). A reset
			// mid-body surfaces here too: retry — every mutating call on
			// this API is idempotent-or-conflicting, never double-applied
			// (a duplicate report of the same ID is acknowledged without
			// re-commit; a duplicate create conflicts).
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
		}
		if attempt >= c.cfg.MaxRetries {
			return lastErr
		}
		if err := c.sleep(ctx, attempt, retryAfter); err != nil {
			return err
		}
	}
}

// attempt performs one HTTP round trip under its own Timeout. For statuses
// < 400 the body decodes into out; for error statuses the JSON error body's
// message comes back in errMsg with the body fully drained, so the pooled
// connection stays reusable.
func (c *Client) attempt(ctx context.Context, method, replica, path string, in, out any) (status int, retryAfter, errMsg string, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		data, merr := json.Marshal(in)
		if merr != nil {
			return 0, "", "", merr
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(actx, method, replica+path, body)
	if err != nil {
		return 0, "", "", err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	defer func() {
		// A JSON decoder stops at the end of its value, short of a chunked
		// body's last chunk, and net/http pools a keep-alive connection
		// again only once its body has been read to EOF.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		// A body that is not the protocol's Error (a proxy's HTML, say)
		// leaves the status text as the message.
		eb := api.Error{Error: http.StatusText(resp.StatusCode)}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return resp.StatusCode, resp.Header.Get(api.RetryAfterHeader), eb.Error, nil
	}
	if out != nil {
		if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
			// A connection reset mid-body lands here: the request may have
			// been applied server-side, but re-issuing is safe (see call).
			return 0, "", "", fmt.Errorf("client: decoding %s response: %w", path, derr)
		}
	}
	return resp.StatusCode, "", "", nil
}

// backoff is the delay before the retry that follows attempt: the
// Retry-After hint in seconds when present (a "0" means retry immediately),
// else exponential from BaseBackoff; either way capped at MaxBackoff — a
// header is outside input, and nothing between client and replica gets to
// park the caller for a day — and jittered over [½d, d) so a fleet of clients
// released together doesn't stampede.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	var d time.Duration
	if hint, ok := api.ParseRetryAfter(retryAfter); ok {
		d = min(hint, c.cfg.MaxBackoff)
		if d == 0 {
			// "Retry immediately" still yields a beat, so a suggest the
			// server cannot hold (a batch blocked by a dead evaluation) does
			// not spin through the retry budget.
			d = c.cfg.BaseBackoff / 4
		}
	} else {
		d = c.cfg.BaseBackoff << uint(attempt)
		if d > c.cfg.MaxBackoff || d <= 0 {
			d = c.cfg.MaxBackoff
		}
	}
	c.mu.Lock()
	jitter := c.rng.Float64()
	c.mu.Unlock()
	return d/2 + time.Duration(jitter*float64(d/2))
}

// sleep blocks for the attempt's backoff, returning early with the context's
// error if it is canceled.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter string) error {
	d := c.backoff(attempt, retryAfter)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
