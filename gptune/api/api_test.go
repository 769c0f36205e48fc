package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRetryAfterRoundTrip: what FormatRetryAfter writes, ParseRetryAfter
// reads back as the same whole-second delay; anything else a header could
// hold is reported absent, so the client falls back to its own backoff.
func TestRetryAfterRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, 999 * time.Millisecond, time.Second, 2500 * time.Millisecond, 90 * time.Second} {
		got, ok := ParseRetryAfter(FormatRetryAfter(d))
		if want := d.Truncate(time.Second); !ok || got != want {
			t.Errorf("%v round-trips to %v (ok=%v), want %v", d, got, ok, want)
		}
	}
	// The most seconds a Duration holds parses; one more would wrap negative.
	if d, ok := ParseRetryAfter("9223372036"); !ok || d != 9223372036*time.Second {
		t.Errorf("ParseRetryAfter(9223372036) = %v (ok=%v)", d, ok)
	}
	for _, h := range []string{"", "-1", "1.5", "soon", "Wed, 21 Oct 2026 07:28:00 GMT", "9223372037", "99999999999", "99999999999999999999"} {
		if d, ok := ParseRetryAfter(h); ok {
			t.Errorf("ParseRetryAfter(%q) = %v, want absent", h, d)
		}
	}
}

// TestPathsMatchRoutes: every path the builders produce lands on the route
// pattern of the same name, so client and server cannot disagree on a URL.
func TestPathsMatchRoutes(t *testing.T) {
	routes := []string{RouteHealth, RouteCreate, RouteImport, RouteList, RouteStatus, RouteSnapshot,
		RouteSuggest, RouteReport, RouteBest, RoutePareto, RouteHistory}
	mux := http.NewServeMux()
	for _, route := range routes {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, Created{Name: r.PathValue(StudyParam)})
		})
	}
	cases := []struct{ method, path, route, study string }{
		{"GET", HealthPath, RouteHealth, ""},
		{"POST", StudiesPath, RouteCreate, ""},
		{"POST", ImportPath, RouteImport, ""},
		{"GET", StudiesPath, RouteList, ""},
		{"GET", StudyPath("s-1", ""), RouteStatus, "s-1"},
		{"GET", StudyPath("s-1", VerbSnapshot), RouteSnapshot, "s-1"},
		{"POST", StudyPath("s-1", VerbSuggest), RouteSuggest, "s-1"},
		{"POST", StudyPath("s-1", VerbReport), RouteReport, "s-1"},
		{"GET", StudyPath("s-1", VerbBest), RouteBest, "s-1"},
		{"GET", StudyPath("s-1", VerbPareto), RoutePareto, "s-1"},
		{"GET", StudyPath("s-1", VerbHistory), RouteHistory, "s-1"},
		// A study may be called "import": only the POST is the import route.
		{"GET", StudyPath("import", ""), RouteStatus, "import"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		if _, pattern := mux.Handler(req); pattern != tc.route {
			t.Errorf("%s %s matched %q, want %q", tc.method, tc.path, pattern, tc.route)
			continue
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if want := `{"name":"` + tc.study + `","tasks":0}` + "\n"; rr.Body.String() != want {
			t.Errorf("%s %s: study wildcard gave %q, want %q", tc.method, tc.path, rr.Body.String(), want)
		}
	}
}

// TestDecodeIsStrictAndEmptyTolerant pins the one decoder's two rules.
func TestDecodeIsStrictAndEmptyTolerant(t *testing.T) {
	req := SuggestRequest{Task: -1}
	if err := Decode(strings.NewReader(""), &req); err != nil || req.Task != -1 {
		t.Errorf("empty body: err %v, task %d; want the defaults left alone", err, req.Task)
	}
	if err := Decode(strings.NewReader(`{"task":2}`), &req); err != nil || req.Task != 2 {
		t.Errorf("plain body: err %v, task %d", err, req.Task)
	}
	for _, body := range []string{`{"task":0,"extra":true}`, `{"task":`, `{"task":"zero"}`, `[0]`} {
		if err := Decode(strings.NewReader(body), &req); err == nil {
			t.Errorf("Decode(%s) succeeded, want an error", body)
		}
	}
}

// specSeeds are the spec bodies the serve and router tests reject (bad
// name, unknown kind, no outputs, task arity mismatch, unknown surrogate,
// scenario plus described spaces, unknown scenario parameter, unknown
// field, truncated, mistyped) and the ones they accept.
var specSeeds = []string{
	`{"name":"ok","task_params":[{"name":"t","kind":"real","lo":0,"hi":10}],"tuning":[{"name":"x","kind":"real","lo":0,"hi":1}],"outputs":["y"],"tasks":[[0],[1.5],[3]],"options":{"eps_tot":4,"seed":1,"workers":1}}`,
	`{"name":"g","scenario":"gemm","scenario_params":{"nodes":64},"tasks":[[1024,1024,1024]],"options":{"eps_tot":8,"seed":11,"async":true}}`,
	`{"name":"../escape","tuning":[{"name":"x","kind":"real","hi":1}],"outputs":["y"],"tasks":[[0]]}`,
	`{"name":"k","tuning":[{"name":"x","kind":"complex"}],"outputs":["y"],"tasks":[[0]]}`,
	`{"name":"no","tuning":[{"name":"n","kind":"integer","lo":1,"hi":64,"log":true},{"name":"c","kind":"categorical","categories":["a","b"]}],"tasks":[[0]]}`,
	`{"name":"ar","tuning":[{"name":"x","kind":"real","hi":1}],"outputs":["y"],"tasks":[[0,1]],"task_params":[{"name":"t","kind":"real","hi":10}]}`,
	`{"name":"s","tasks":[[0]],"options":{"surrogate":"kriging"}}`,
	`{"name":"both","scenario":"gemm","tuning":[{"name":"x","kind":"real","hi":1}],"tasks":[[1024,1024]]}`,
	`{"name":"p","scenario":"gemm","scenario_params":{"bogus":1},"tasks":[[1,2,3]]}`,
	`{"name":"u","bogus_field":1}`,
	`{"name":`,
	`{"name":"t","tasks":"oops"}`,
	`{"name":"big","tasks":[[1e999]]}`,
	`[1,2]`,
	`not json`,
	``,
}

// FuzzDecodeSpec: no byte sequence panics the decoder, and whatever it
// accepts survives the on-disk form — encode, decode, encode is a fixed
// point — so a spec the server persisted is the spec a restart reads.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range specSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec StudySpec
		if Decode(bytes.NewReader(data), &spec) != nil {
			return
		}
		disk, err := EncodeSpec(&spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		var back StudySpec
		if err := Decode(bytes.NewReader(disk), &back); err != nil {
			t.Fatalf("spec file does not decode: %v\n%s", err, disk)
		}
		if again, _ := EncodeSpec(&back); !bytes.Equal(disk, again) {
			t.Fatalf("spec file is not a fixed point:\n%s\nvs\n%s", disk, again)
		}
	})
}

// FuzzDecodeArchive is the same property for the import body, whose byte
// payloads ride as base64.
func FuzzDecodeArchive(f *testing.F) {
	for _, seed := range specSeeds {
		f.Add([]byte(`{"spec":` + seed + `,"snapshot":"bnVsbA==","wal":"eyJ3YWwiOjEsInNuYXBzaG90X2xlbiI6MH0K","logged":2}`))
	}
	f.Add([]byte(`{"spec":{"name":"c"},"wal":"e25vdCBqc29ufQo="}`))
	f.Add([]byte(`{"spec":{"name":"c"},"wal":"not base64!"}`))
	f.Add([]byte(`{"spec":{"name":"x"},"archive_version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var arc Archive
		if Decode(bytes.NewReader(data), &arc) != nil {
			return
		}
		wire, err := json.Marshal(arc)
		if err != nil {
			t.Fatalf("accepted archive does not encode: %v", err)
		}
		var back Archive
		if err := Decode(bytes.NewReader(wire), &back); err != nil {
			t.Fatalf("archive does not decode: %v\n%s", err, wire)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(wire, again) {
			t.Fatalf("archive is not a fixed point:\n%s\nvs\n%s", wire, again)
		}
	})
}

// TestMergeStudyListsSkipsFailedReplicas: the merged list is the sorted set
// of every answering replica's names; a replica whose fetch fails is left
// out, and only when none answered does the merge fail, with the first
// failure.
func TestMergeStudyListsSkipsFailedReplicas(t *testing.T) {
	lists := map[string][]string{"a": {"s2", "s1"}, "c": {"s3", "s1"}, "e": {}}
	fetch := func(rep string) (StudyList, error) {
		names, ok := lists[rep]
		if !ok {
			return StudyList{Studies: []string{"ignored"}}, errors.New(rep + " is down")
		}
		return StudyList{Studies: names}, nil
	}
	got, err := MergeStudyLists([]string{"a", "b", "c"}, fetch)
	if err != nil || !slices.Equal(got.Studies, []string{"s1", "s2", "s3"}) {
		t.Errorf("merge of a, b (down), c = %v, %v; want [s1 s2 s3]", got.Studies, err)
	}
	if got, err := MergeStudyLists([]string{"b", "e"}, fetch); err != nil || got.Studies == nil || len(got.Studies) != 0 {
		t.Errorf("merge of b (down), e (empty) = %#v, %v; want an empty, non-nil list", got.Studies, err)
	}
	if _, err := MergeStudyLists([]string{"b", "d"}, fetch); err == nil || err.Error() != "b is down" {
		t.Errorf("merge with every replica down: error %v, want the first one's", err)
	}
}
