package api

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Verbs under /studies/{study}/; the bare study path is its status.
const (
	VerbSuggest  = "suggest"
	VerbReport   = "report"
	VerbBest     = "best"
	VerbPareto   = "pareto"
	VerbHistory  = "history"
	VerbSnapshot = "snapshot"
)

// Paths that do not name a study, and the builder for those that do.
const (
	HealthPath  = "/healthz"
	StudiesPath = "/studies"
	ImportPath  = StudiesPath + "/import"
)

// StudyPath returns a study's status path, or with a verb the path of that
// operation on it.
func StudyPath(study, verb string) string {
	if verb == "" {
		return StudiesPath + "/" + study
	}
	return StudiesPath + "/" + study + "/" + verb
}

// StudyParam is the path wildcard naming the study (http.Request.PathValue).
const StudyParam = "study"

// Route patterns (net/http ServeMux syntax) of a replica, which the router
// serves too: RouteHealth, RouteList, RouteCreate and RouteImport itself,
// every study-scoped route through the two method-agnostic RouteStudy*
// patterns, forwarded to the study's owner.
const (
	RouteHealth   = "GET " + HealthPath
	RouteCreate   = "POST " + StudiesPath
	RouteImport   = "POST " + ImportPath
	RouteList     = "GET " + StudiesPath
	RouteStatus   = "GET " + RouteStudy
	RouteSnapshot = "GET " + RouteStudy + "/" + VerbSnapshot
	RouteSuggest  = "POST " + RouteStudy + "/" + VerbSuggest
	RouteReport   = "POST " + RouteStudy + "/" + VerbReport
	RouteBest     = "GET " + RouteStudy + "/" + VerbBest
	RoutePareto   = "GET " + RouteStudy + "/" + VerbPareto
	RouteHistory  = "GET " + RouteStudy + "/" + VerbHistory

	RouteStudy     = StudiesPath + "/{" + StudyParam + "}"
	RouteStudyVerb = RouteStudy + "/{verb}"
)

// Status codes the protocol gives meaning beyond plain HTTP. 400 is a
// request the sender must fix, 404 an unknown study or suggestion ID, 500
// and 502 faults behind the server or router; none of those is retried.
const (
	// StatusConflict on suggest means the server's bound on one request's
	// wait passed with nothing to hand out: a suggest waits on the replica
	// through batch generation and through the other evaluators' reports the
	// batch needs, and is answered the moment there is a configuration for
	// it. Retry-After is 0 — ask again and the wait resumes. On create/import
	// it means the study exists; retrying cannot help.
	StatusConflict = http.StatusConflict
	// StatusDraining: the replica is shutting down, or the router has no
	// healthy replica (or just lost the one it tried). Retry after backoff.
	StatusDraining = http.StatusServiceUnavailable
)

// Body caps. MaxImportBytes is fixed because server and router must agree:
// the router buffers a create/import body to learn the study name and the
// replica then decodes the same bytes.
const (
	DefaultMaxBodyBytes = 1 << 20  // every request but import (gptuned -max-body)
	MaxImportBytes      = 64 << 20 // an import carries a whole study's snapshot + WAL
)

// On-disk layout of a study inside a replica's data directory: the spec at
// <name>SpecSuffix (EncodeSpec's bytes), the history snapshot at
// <name>HistSuffix, and the snapshot's WAL sidecar beside it.
const (
	SpecSuffix = ".spec.json"
	HistSuffix = ".hist.json"
)

// EncodeSpec returns the spec file's bytes.
func EncodeSpec(spec *StudySpec) ([]byte, error) {
	return json.MarshalIndent(spec, "", " ")
}

// RetryAfterHeader carries the retry hint on StatusConflict (suggest) and
// StatusDraining responses, as whole seconds.
const RetryAfterHeader = "Retry-After"

// FormatRetryAfter encodes a retry delay, truncated to whole seconds; "0"
// means retry immediately.
func FormatRetryAfter(d time.Duration) string {
	return strconv.FormatInt(int64(d/time.Second), 10)
}

// ParseRetryAfter decodes a Retry-After value; ok is false when the header
// is absent, not a non-negative whole number of seconds, or more seconds
// than a time.Duration holds.
func ParseRetryAfter(h string) (d time.Duration, ok bool) {
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 0 || secs > int64(math.MaxInt64/time.Second) {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Decode strict-decodes one JSON value from r into v: unknown fields are
// errors. An empty input leaves v untouched and returns nil, so requests
// with all-default parameters can omit the body entirely.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// DecodeBody is Decode over a request body capped at limit bytes.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	return Decode(http.MaxBytesReader(w, r.Body, limit), v)
}

// WriteJSON writes v as the response body with a status code. Encoding
// errors past the header cannot be reported to the client; they surface as
// a truncated body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an Error body. StatusDraining responses from the router
// set RetryAfterHeader first.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, Error{Error: err.Error()})
}
