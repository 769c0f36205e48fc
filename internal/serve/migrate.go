package serve

// Study migration: a study's durable state is exactly its spec file plus
// the snapshot/log pair its WAL maintains (the PR-3 transfer format), so
// moving or re-homing a study is snapshot shipping — GET the archive from
// one replica, POST it to another, and core.Resume replays it bitwise.
// No record translation, no coordination protocol.

import (
	"fmt"
	"net/http"
	"os"

	"repro/gptune/api"
	"repro/internal/histdb"
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

// handleImport re-homes a study from an archive: the history files and spec
// are written durably, then the study is opened exactly as a post-crash
// restart would — core.Resume replays the imported log, and the engine
// satisfies every logged evaluation from it instead of re-paying the
// objective. Importing over an existing study answers 409; delete the
// loser's data directory entries first if the import should win.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var arc api.Archive
	if err := decodeBody(w, r, &arc, api.MaxImportBytes); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if _, _, _, err := buildSpec(&arc.Spec); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	name := arc.Spec.Name
	if !s.reserveName(w, name) {
		return
	}
	defer s.releaseName(name)

	// History lands before the spec: resumeAll keys on spec files, so a
	// crash between the two writes leaves no half-imported study visible
	// after restart — re-POST the archive and the files are rewritten. Any
	// failure below removes whatever was written.
	installed := false
	defer func() {
		if !installed {
			os.Remove(s.histPath(name))
			os.Remove(histdb.WalPath(s.histPath(name)))
			os.Remove(s.specPath(name))
		}
	}()
	for _, f := range []struct {
		path string
		data []byte
	}{{s.histPath(name), arc.Snapshot}, {histdb.WalPath(s.histPath(name)), arc.WAL}} {
		if len(f.data) == 0 {
			os.Remove(f.path)
		} else if err := histdb.WriteFileDurable(f.path, f.data); err != nil {
			api.WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	data, err := api.EncodeSpec(&arc.Spec)
	if err == nil {
		err = histdb.WriteFileDurable(s.specPath(name), data)
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	st, err := s.openStudy(arc.Spec)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: importing study %s: %w", name, err))
		return
	}
	if got := st.cp.Logged(); arc.Logged != 0 && got != arc.Logged {
		st.cp.Close()
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: archive for %s claims %d logged evaluations but its WAL recovered %d", name, arc.Logged, got))
		return
	}
	if installed = s.installStudy(w, st); installed {
		api.WriteJSON(w, http.StatusCreated, api.Imported{Logged: st.cp.Logged(), Name: name})
	}
}
