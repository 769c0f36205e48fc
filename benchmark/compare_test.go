package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/stats"
)

func lm(better string, bound float64, values ...float64) ledgerMetric {
	return ledgerMetric{Unit: "x", Better: better, Bound: bound, Summary: stats.Summarize(values), Values: values}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name     string
		old, cur ledgerMetric
		want     string
	}{
		{"same", lm("lower", 0.1, 10, 10.1, 9.9), lm("lower", 0.1, 10, 10.2, 9.8), "within"},
		{"slower beyond bound", lm("lower", 0.1, 10, 10.1, 9.9), lm("lower", 0.1, 12, 12.1, 11.9), "WORSE"},
		{"slower inside bound", lm("lower", 0.1, 10, 10.1, 9.9), lm("lower", 0.1, 10.5, 10.6, 10.4), "within"},
		{"faster, every run", lm("lower", 0.1, 10, 10.1, 9.9), lm("lower", 0.1, 8, 8.1, 7.9), "better"},
		{"throughput down", lm("higher", 0.1, 100, 101, 99), lm("higher", 0.1, 80, 81, 79), "WORSE"},
		{"throughput up", lm("higher", 0.1, 100, 101, 99), lm("higher", 0.1, 130, 131, 129), "better"},
		{"noisy and overlapping", lm("lower", 0.1, 10, 14, 7), lm("lower", 0.1, 11, 15, 8), "unresolved"},
		{"noisy but separated", lm("lower", 0.1, 10, 14, 7), lm("lower", 0.1, 4, 5, 3), "better"},
		{"noisy and clearly worse", lm("lower", 0.1, 10, 14, 7), lm("lower", 0.1, 30, 40, 20), "WORSE"},
	}
	for _, c := range cases {
		if _, got := verdict(c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func testLedger(evalsPerS float64, failed int) *ledger {
	e2e := map[string]ledgerMetric{}
	for _, d := range endToEnd {
		e2e[d.Name] = lm(d.Better, d.Bound, 10, 10.1, 9.9)
	}
	e2e["evals_per_s"] = lm("higher", 0.25, evalsPerS, evalsPerS*1.01, evalsPerS*0.99)
	return &ledger{Schema: 1, Scale: "full", Seconds: 15, Workloads: map[string]ledgerWorkload{
		"tune_cold": {Correct: true, Attempted: 100, Failed: failed, OpsFailedFrac: float64(failed) / 100, Hashes: []string{"abc"}, EndToEnd: e2e},
	}}
}

func TestCompareLedgers(t *testing.T) {
	var out bytes.Buffer
	if code := compareLedgers(testLedger(60, 0), testLedger(61, 0), &out); code != 0 {
		t.Errorf("equal ledgers: exit %d\n%s", code, out.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("no row for %s:\n%s", d.Name, out.String())
		}
	}
	out.Reset()
	if code := compareLedgers(testLedger(60, 0), testLedger(40, 0), &out); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a third less throughput: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareLedgers(testLedger(40, 0), testLedger(60, 0), &out); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("half again the throughput: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareLedgers(testLedger(60, 0), testLedger(60, 3), &out); code != 1 || !strings.Contains(out.String(), "ops_failed_frac") {
		t.Errorf("more failed operations: exit %d\n%s", code, out.String())
	}
	out.Reset()
	cur := testLedger(60, 0)
	delete(cur.Workloads, "tune_cold")
	cur.Workloads["other"] = ledgerWorkload{}
	if code := compareLedgers(testLedger(60, 0), cur, &out); code != 1 {
		t.Errorf("a workload gone missing: exit %d\n%s", code, out.String())
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		data, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", testLedger(60, 0)), write("b.json", testLedger(30, 0))
	var out, errb bytes.Buffer
	if code := realMain([]string{"-compare", a, a}, &out, &errb); code != 0 {
		t.Errorf("a ledger against itself: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if code := realMain([]string{"-compare", a, b}, &out, &errb); code != 1 {
		t.Errorf("half the throughput: exit %d", code)
	}
	if code := realMain([]string{"-compare", a, filepath.Join(dir, "missing.json")}, &out, &errb); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}
