package router_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the router's current responses")

// TestRouterWireGolden pins the bytes of the router's own bodies — its
// /healthz, the merged list, the peek 400s, the list 502 and the
// no-healthy-replicas 503 + Retry-After — against testdata/wire.golden,
// recorded from the commit before the protocol moved into gptune/api. The
// replica's ephemeral address is rewritten to a placeholder. The proxy
// ErrorHandler's 503 is pinned by status only: at the recording commit it
// was written by hand without the encoder's trailing newline (and without
// escaping — see TestProxyErrorBodyEscapesReplicaURL).
func TestRouterWireGolden(t *testing.T) {
	s, err := serve.NewServer(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := httptest.NewServer(s.Handler())
	defer rep.Close()
	// No Start: ejection is driven by request failures alone, so the
	// failure counts in the health body are deterministic.
	rt, err := router.New(router.Config{Replicas: []string{rep.URL}, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	scrub := strings.NewReplacer(rep.URL, "<A>", strings.TrimPrefix(rep.URL, "http://"), "<A-addr>")

	var buf bytes.Buffer
	do := func(method, path, body string, pinBody bool) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
		fmt.Fprintf(&buf, "> %s %s %s\n< %d content-type=%q retry-after=%q\n", method, path, body,
			rr.Code, rr.Header().Get("Content-Type"), rr.Header().Get("Retry-After"))
		if !pinBody {
			buf.WriteString("(body not pinned)\n")
			return
		}
		out := scrub.Replace(rr.Body.String())
		buf.WriteString(out)
		if !strings.HasSuffix(out, "\n") {
			buf.WriteString("<no trailing newline>\n")
		}
	}

	do("GET", "/healthz", "", true)
	do("GET", "/studies", "", true)
	do("POST", "/studies", `{"name":"r","tuning":[{"name":"x","kind":"real","lo":0,"hi":1}],"outputs":["y"],"tasks":[[1]],"options":{"eps_tot":2,"seed":3,"workers":1}}`, true)
	do("GET", "/studies", "", true)
	do("GET", "/studies/r", "", true)
	do("POST", "/studies", `not json`, true)
	do("POST", "/studies/import", `{"spec":`, true)

	rep.Close() // the replica dies
	do("GET", "/studies", "", true)
	do("GET", "/studies/r", "", false) // proxy error: second failure ejects
	do("GET", "/studies/r", "", true)
	do("GET", "/studies", "", true)
	do("POST", "/studies", `{"name":"q"}`, true)
	do("GET", "/healthz", "", true)

	golden := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("router wire drift\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
