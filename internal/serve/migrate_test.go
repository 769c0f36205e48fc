package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/gptune/api"
)

// TestSnapshotImportResumeParity is the migration acceptance test: a study
// driven partway on one server, exported, and imported onto a fresh server
// must (a) resume without re-paying a single logged evaluation and (b)
// finish with bitwise the same history as an uninterrupted run of the same
// spec — the same guarantee the SIGKILL-restart test proves for in-place
// recovery, here across servers.
func TestSnapshotImportResumeParity(t *testing.T) {
	const epsTot, seed = 8, 7
	spec := testSpec("mig", epsTot, seed)

	// Reference: one server drives the study start to finish.
	ref := newTestServer(t).c
	create(t, ref, spec)
	refPaid := drive(t, ref, "mig", paper(testTasks), -1)
	refHist := history(t, ref, "mig")

	// Source: same spec, driven only partway, then exported.
	src := newTestServer(t).c
	create(t, src, spec)
	firstPaid := drive(t, src, "mig", paper(testTasks), 7)
	arc, err := src.Snapshot(ctx, "mig")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if arc.Spec.Name != "mig" {
		t.Fatalf("archive names study %q", arc.Spec.Name)
	}
	if arc.Logged != firstPaid {
		t.Fatalf("archive logs %d evaluations, client paid %d", arc.Logged, firstPaid)
	}
	if len(arc.Snapshot) == 0 || len(arc.WAL) == 0 {
		t.Fatalf("archive missing bytes after compaction: snapshot=%d wal=%d", len(arc.Snapshot), len(arc.WAL))
	}

	// Destination: a fresh server imports the archive and finishes the run.
	// The import goes out raw: the assertion is on the response body's own
	// logged count, which the client does not surface.
	dst := newTestServer(t)
	body, err := json.Marshal(arc)
	if err != nil {
		t.Fatal(err)
	}
	var imp api.Imported
	if resp := raw(t, "POST", dst.url+api.ImportPath, string(body), &imp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("import: status %d", resp.StatusCode)
	}
	if imp.Logged != firstPaid {
		t.Fatalf("import recovered %d logged evaluations, want %d", imp.Logged, firstPaid)
	}
	secondPaid := drive(t, dst.c, "mig", paper(testTasks), -1)
	if firstPaid+secondPaid != refPaid {
		t.Fatalf("paid %d+%d evaluations across the migration, uninterrupted run paid %d — logged work was re-paid",
			firstPaid, secondPaid, refPaid)
	}
	gotHist := history(t, dst.c, "mig")
	a, _ := json.Marshal(refHist)
	b, _ := json.Marshal(gotHist)
	if string(a) != string(b) {
		t.Fatalf("migrated history differs from the uninterrupted run\nref: %s\ngot: %s", a, b)
	}

	// Importing over a live study must not clobber it.
	wantStatus(t, dst.c.Import(ctx, arc), http.StatusConflict, "duplicate import")
}

// TestImportRejectsBadArchive: a structurally invalid spec and a corrupt
// WAL must both bounce with 400 and leave no study (or files) behind.
func TestImportRejectsBadArchive(t *testing.T) {
	ts := newTestServer(t)
	c := ts.c

	bad := api.Archive{Spec: testSpec("", 4, 1)} // empty name fails validation
	wantStatus(t, c.Import(ctx, bad), http.StatusBadRequest, "invalid spec import")

	corrupt := api.Archive{Spec: testSpec("c", 4, 1), WAL: []byte("{\"wal\":1,\"snapshot_len\":0}\n{not json}\n")}
	wantStatus(t, c.Import(ctx, corrupt), http.StatusBadRequest, "corrupt WAL import")
	if list, err := c.Studies(ctx); err != nil || len(list) != 0 {
		t.Fatalf("failed imports left studies behind: %v (%v)", list, err)
	}
	wantNoStudyFiles(t, ts.dir, "c")
	// The name must be importable again after the failure (files cleaned,
	// reservation released).
	if err := c.Import(ctx, api.Archive{Spec: testSpec("c", 4, 1)}); err != nil {
		t.Fatalf("re-import after failure: %v", err)
	}
}

// TestHealthDraining: /healthz must flip to 503 the moment draining begins
// — before any study teardown — and report per-study phase
// while healthy so a router can make eviction decisions.
func TestHealthDraining(t *testing.T) {
	ts := newTestServer(t)
	create(t, ts.c, testSpec("h", 4, 3))
	var h api.Health
	if resp := raw(t, "GET", ts.url+api.HealthPath, "", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("health: status %d, want 200", resp.StatusCode)
	}
	if h.Status != "ok" || h.Studies != 1 {
		t.Fatalf("health payload: %+v", h)
	}
	d, ok := h.Detail["h"]
	if !ok || d.Phase == "" {
		t.Fatalf("health detail missing study phase: %+v", h.Detail)
	}

	ts.srv.BeginDrain()
	h.Detail = nil
	if resp := raw(t, "GET", ts.url+api.HealthPath, "", &h); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health while draining: status %d, want 503", resp.StatusCode)
	}
	if h.Status != "draining" {
		t.Fatalf("health status while draining: %q", h.Status)
	}
}
