package serve

// Study migration: a study's durable state is exactly its spec file plus
// the snapshot/log pair its WAL maintains (the PR-3 transfer format), so
// moving or re-homing a study is snapshot shipping — GET the archive from
// one replica, POST it to another, and core.Resume replays it bitwise.
// No record translation, no coordination protocol.

import (
	"net/http"

	"repro/gptune/api"
)

// handleSnapshot exports a study for migration. The WAL is compacted first
// so the archive is one dense snapshot plus a header-only log, then both
// files are copied in a single WAL critical section — no append can
// interleave, no torn tail can be observed. The study keeps serving
// throughout; an evaluation committed after the export simply isn't in it.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request, st *study) {
	if err := st.cp.Compact(); err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	snap, log, err := st.cp.Export()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Archive{Spec: st.spec, Snapshot: snap, WAL: log, Logged: st.cp.Logged()})
}

// handleImport re-homes a study from an archive through the one admit path:
// the study is opened exactly as a post-crash restart would — core.Resume
// replays the imported log, and the engine satisfies every logged evaluation
// from it instead of re-paying the objective. Importing over an existing
// study answers 409; delete the loser's data directory entries first if the
// import should win.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var arc api.Archive
	if err := decodeBody(w, r, &arc, api.MaxImportBytes); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if st := s.admit(w, &arc); st != nil {
		api.WriteJSON(w, http.StatusCreated, api.Imported{Logged: st.cp.Logged(), Name: arc.Spec.Name})
	}
}
