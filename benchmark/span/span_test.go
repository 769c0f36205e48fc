package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func roll(t *testing.T, rolls []Roll, name string) Roll {
	t.Helper()
	for _, r := range rolls {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no roll-up row %q in %+v", name, rolls)
	return Roll{}
}

func TestRollUpSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{Name: "study", Parent: -1, StartNs: 0, EndNs: 100 * ms},
		{Name: "suggest", Parent: 0, StartNs: 10 * ms, EndNs: 40 * ms},
		// Overlaps the first child by 10 ms: the union covers 10..60.
		{Name: "report", Parent: 0, StartNs: 30 * ms, EndNs: 60 * ms},
		// Sticks out past the parent: only 90..100 counts against it.
		{Name: "report", Parent: 0, StartNs: 90 * ms, EndNs: 130 * ms},
		{Name: "fit", Parent: 1, StartNs: 15 * ms, EndNs: 35 * ms},
	}
	rolls := RollUp(spans)
	if r := roll(t, rolls, "study"); r.Count != 1 || r.TotalS != 0.1 || r.SelfS != 0.04 {
		t.Errorf("study roll = %+v, want total 0.1 self 0.04", r)
	}
	if r := roll(t, rolls, "suggest"); r.SelfS != 0.01 || r.TotalS != 0.03 {
		t.Errorf("suggest roll = %+v, want total 0.03 self 0.01", r)
	}
	if r := roll(t, rolls, "report"); r.Count != 2 || r.TotalS != 0.07 || r.SelfS != 0.07 {
		t.Errorf("report roll = %+v", r)
	}
	if r := roll(t, rolls, "fit"); r.SelfS != 0.02 {
		t.Errorf("fit roll = %+v", r)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *Recorder
	h := r.Start("x", "", -1)
	r.End(h)
	if r.Add("y", "", h, time.Now(), time.Second) != -1 || r.Len() != 0 || r.Spans() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestRecorderWriteFile(t *testing.T) {
	r := New()
	root := r.Start("study", "s1", -1)
	kid := r.Start("suggest", "s1", root)
	r.End(kid)
	r.Add("modeling", "s1", kid, time.Now(), 5*time.Millisecond)
	r.End(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path, "w", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || f.Seed != 7 || len(f.Spans) != 3 || len(f.RollUp) != 3 {
		t.Errorf("file = %+v", f)
	}
	if f.Spans[1].Parent != 0 || f.Spans[2].Parent != 1 || f.Spans[0].EndNs < f.Spans[1].EndNs {
		t.Errorf("span tree wrong: %+v", f.Spans)
	}
}
