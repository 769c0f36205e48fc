// Package api is the gptuned wire contract: every request, response and
// on-disk shape, the routes and path builders, the status codes the protocol
// gives meaning to (with the Retry-After encode/parse pair), the one strict
// body decoder, the one JSON/error writer, and the body caps. The server
// (internal/serve), the client (gptune/client) and the router
// (internal/router) all compile against it and declare no wire shape of
// their own, so the protocol is one decision in one place. It imports
// nothing else from this module.
//
// Field order is part of the contract: responses that used to be written
// from map literals encode their keys sorted, and the structs that replaced
// them declare fields in that order (testdata/wire.golden in internal/serve
// and internal/router pins the bytes).
package api

import (
	"slices"
	"sort"
)

// ParamSpec is the wire form of one tuning- or task-space parameter.
type ParamSpec struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"` // "real", "integer" or "categorical"
	Lo         float64  `json:"lo,omitempty"`
	Hi         float64  `json:"hi,omitempty"`
	Log        bool     `json:"log,omitempty"`
	Categories []string `json:"categories,omitempty"`
}

// OptionsSpec is the wire form of the tuning options a study runs with. Zero
// values take the engine's defaults. Options that cannot round-trip through
// JSON (callbacks, checkpoint hooks, worker gates) are owned by the server.
type OptionsSpec struct {
	EpsTot        int     `json:"eps_tot"`
	InitFraction  float64 `json:"init_fraction,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	LogY          bool    `json:"log_y,omitempty"`
	Q             int     `json:"q,omitempty"`
	NumStarts     int     `json:"num_starts,omitempty"`
	ModelMaxIter  int     `json:"model_max_iter,omitempty"`
	Acquisition   string  `json:"acquisition,omitempty"`
	LCBKappa      float64 `json:"lcb_kappa,omitempty"`
	BatchEvals    int     `json:"batch_evals,omitempty"`
	MOBatch       int     `json:"mo_batch,omitempty"`
	MOGenerations int     `json:"mo_generations,omitempty"`
	MOPopSize     int     `json:"mo_pop_size,omitempty"`
	Seed          int64   `json:"seed"`
	// Surrogate selects the model backend (the server's surrogate.Kinds()
	// is the authoritative list; empty means its default). An unknown kind
	// is rejected, naming the known ones, before the spec is persisted.
	Surrogate string `json:"surrogate,omitempty"`
	// RefitEvery relearns surrogate hyperparameters only every k-th
	// generation, extending the model incrementally in between (0 or 1 =
	// refit every generation).
	RefitEvery int `json:"refit_every,omitempty"`
	// Inducing bounds the "sgp" backend's per-task inducing set (0 = the
	// backend default).
	Inducing int `json:"inducing,omitempty"`
	// Async is accepted and has no effect: it once selected a polling
	// protocol for suggest, and specs persisted beside WALs still carry it.
	// Every suggest now waits on the engine (see StatusConflict).
	Async bool `json:"async,omitempty"`
}

// StudySpec is everything needed to (re)build a study's engine: the spaces,
// the task vectors, and the tuning options. It is the POST /studies body and
// — indented, see EncodeSpec — the spec file persisted next to the study's
// WAL, so a restarted server rebuilds the exact engine whose log it replays:
// the spec on disk, not the client, is the source of truth after a crash.
//
// Constraints are Go predicates and have no wire form, so hand-described
// spaces (Tuning/TaskParams) are always unconstrained. To tune a constrained
// space over HTTP, name a registered workload via Scenario: the server
// instantiates the spaces — constraints included — from its registry, and a
// restarted server re-resolves the same name from the persisted spec.
type StudySpec struct {
	Name string `json:"name"`
	// Scenario, when non-empty, names a workload-registry scenario that
	// supplies the task/tuning/output spaces server-side. Mutually exclusive
	// with TaskParams/Tuning/Outputs. ScenarioParams are the scenario's
	// constructor parameters (e.g. {"nodes": 64}); omitted keys take the
	// scenario's defaults.
	Scenario       string             `json:"scenario,omitempty"`
	ScenarioParams map[string]float64 `json:"scenario_params,omitempty"`
	TaskParams     []ParamSpec        `json:"task_params,omitempty"` // optional task-space description
	Tuning         []ParamSpec        `json:"tuning,omitempty"`
	Outputs        []string           `json:"outputs,omitempty"`
	Tasks          [][]float64        `json:"tasks"`
	Options        OptionsSpec        `json:"options"`
}

// Created is the POST /studies response.
type Created struct {
	Name  string `json:"name"`
	Tasks int    `json:"tasks"`
}

// StudyList is the GET /studies response (a replica's own studies; the
// router's and the client's merged across replicas), names sorted.
type StudyList struct {
	Studies []string `json:"studies"`
}

// MergeStudyLists is the one cluster-wide GET /studies: it asks every
// replica through fetch and merges the names that came back into one sorted
// set. It fails, with the first replica's error, only when no replica
// answered: an unreachable replica's studies are missing from the list, not
// an error.
func MergeStudyLists(replicas []string, fetch func(replica string) (StudyList, error)) (StudyList, error) {
	all, answered := StudyList{Studies: []string{}}, false
	var firstErr error
	for _, rep := range replicas {
		l, err := fetch(rep)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		all.Studies = append(all.Studies, l.Studies...)
		answered = true
	}
	if !answered {
		return StudyList{}, firstErr
	}
	sort.Strings(all.Studies)
	all.Studies = slices.Compact(all.Studies)
	return all, nil
}

// Status is the GET /studies/{study} response.
type Status struct {
	Name         string `json:"name"`
	Surrogate    string `json:"surrogate"` // model backend the engine resolved
	Phase        string `json:"phase"`     // engine phase: "init", "search", "mo" or "done"
	Tasks        int    `json:"tasks"`
	Observations int    `json:"observations"` // committed evaluations across tasks
	Logged       int    `json:"logged"`       // records in the WAL
	Done         bool   `json:"done"`
	Error        string `json:"error,omitempty"` // fatal engine error, if any
}

// SuggestRequest is the POST /studies/{study}/suggest body. Task -1 (or an
// empty body) asks for any task's next configuration.
type SuggestRequest struct {
	Task int `json:"task"`
}

// Suggestion is one configuration to evaluate.
type Suggestion struct {
	ID    int64     `json:"id"`
	Task  int       `json:"task"`
	Phase string    `json:"phase,omitempty"`
	X     []float64 `json:"x"`
}

// SuggestResponse is the suggest response: either Suggestion (a
// configuration to evaluate) or Done (budget exhausted), never both. The
// nesting is deliberate — a flat struct without omitempty once serialized a
// done study as {"id":0,"task":0,"done":true}, indistinguishable from a
// real task-0 suggestion to a client that ignored the done flag.
type SuggestResponse struct {
	Suggestion *Suggestion `json:"suggestion,omitempty"`
	Done       bool        `json:"done,omitempty"`
}

// ReportRequest is the POST /studies/{study}/report body: either Y (the
// measured outputs) or Failed (the evaluation errored; Error says why).
type ReportRequest struct {
	ID     int64     `json:"id"`
	Y      []float64 `json:"y,omitempty"`
	Failed bool      `json:"failed,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// ReportResponse acknowledges a report. After a failure the engine may hand
// back a substitute configuration under the same ID (Retry); Terminal means
// the configuration failed for good and the study cannot finish its batch.
type ReportResponse struct {
	OK       bool        `json:"ok"`
	Retry    *Suggestion `json:"retry,omitempty"`
	Terminal bool        `json:"terminal,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// TaskHistory is one task's evaluations in the history and pareto responses.
type TaskHistory struct {
	Task []float64   `json:"task"`
	X    [][]float64 `json:"x"`
	Y    [][]float64 `json:"y"`
}

// History is the GET /studies/{study}/history response.
type History struct {
	Phase     string        `json:"phase"`
	Surrogate string        `json:"surrogate"`
	Tasks     []TaskHistory `json:"tasks"`
}

// Pareto is the GET /studies/{study}/pareto response: each task's
// non-dominated set.
type Pareto struct {
	Tasks []TaskHistory `json:"tasks"`
}

// BestEntry is one task's incumbent for objective 0; X and Y are absent
// until the task has an evaluation.
type BestEntry struct {
	Task []float64 `json:"task"`
	X    []float64 `json:"x,omitempty"`
	Y    []float64 `json:"y,omitempty"`
}

// Best is the GET /studies/{study}/best response.
type Best struct {
	Tasks []BestEntry `json:"tasks"`
}

// Archive is a study in transfer form: its spec plus a mutually consistent
// snapshot/log byte pair. It is both the GET /studies/{study}/snapshot
// response and the POST /studies/import body; the byte fields ride the wire
// as base64 per encoding/json.
type Archive struct {
	Spec StudySpec `json:"spec"`
	// Snapshot is the snapshot file's bytes; empty when the study never
	// compacted (everything lives in the log).
	Snapshot []byte `json:"snapshot,omitempty"`
	// WAL is the append-only log file's bytes (header line + records).
	WAL []byte `json:"wal,omitempty"`
	// Logged counts the evaluation records in the archive, so the importer
	// can account for exactly how many evaluations it will not re-pay. Zero
	// (an archive rebuilt from a dead replica's disk) skips the check.
	Logged int `json:"logged"`
}

// Imported is the POST /studies/import response.
type Imported struct {
	Logged int    `json:"logged"`
	Name   string `json:"name"`
}

// HealthStudy is one study's slice of a replica's GET /healthz payload —
// enough for a router to decide whether evicting the replica strands work.
type HealthStudy struct {
	Phase string `json:"phase"`
	Done  bool   `json:"done,omitempty"`
}

// Health is a replica's GET /healthz response: 200 with status "ok", or
// StatusDraining with status "draining" once graceful shutdown has begun.
type Health struct {
	Detail  map[string]HealthStudy `json:"detail"`
	Status  string                 `json:"status"`
	Studies int                    `json:"studies"`
}

// ReplicaHealth is one replica's row in the router's GET /healthz payload.
type ReplicaHealth struct {
	Healthy  bool `json:"healthy"`
	Failures int  `json:"failures,omitempty"` // consecutive probe or proxy failures
}

// RouterHealth is the router's GET /healthz response: 200 while at least
// one replica is routable, StatusDraining otherwise.
type RouterHealth struct {
	Healthy  int                      `json:"healthy"`
	Replicas map[string]ReplicaHealth `json:"replicas"`
	Status   string                   `json:"status"`
}

// Error is the body of every response with a status of 400 or above.
type Error struct {
	Error string `json:"error"`
}
