package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/benchmark/stats"
	"repro/gptune/client"
	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/histdb"
	"repro/internal/la"
	"repro/internal/opt"
	"repro/internal/ring"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

// timeOp runs op in batches of batch calls until budget is spent (at least
// minReps batches) and returns the median nanoseconds per call.
func timeOp(budget time.Duration, minReps, batch int, op func()) float64 {
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch))
		if len(samples) >= 10000 {
			break
		}
	}
	return median(samples)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink float64

// addLayers measures every layer from outside on seeded inputs and adds
// the results to out. The inputs depend on the seed only — not on the
// workload — so these numbers mean the same in every traced run; they are
// taken after the workload's own processes are gone.
func addLayers(e *env, out *outcome) error {
	rng := rand.New(rand.NewSource(e.seed))
	steps := []func(*env, *outcome, *rand.Rand) error{
		layerLA, layerModels, layerSmall, layerHistdb, layerServe, layerWire,
	}
	for _, step := range steps {
		if err := step(e, out, rng); err != nil {
			return err
		}
	}
	return nil
}

// spd returns a seeded symmetric positive definite n×n matrix.
func spd(n int, rng *rand.Rand) *la.Matrix {
	b := la.NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.Float64() - 0.5
	}
	a := la.MatMulTransB(b, b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func layerLA(e *env, out *outcome, rng *rand.Rand) error {
	n := 512
	if e.smoke {
		n = 128
	}
	a := spd(n, rng)
	var l *la.Matrix
	var err error
	chol := func(workers int) float64 {
		return timeOp(200*time.Millisecond, 3, 1, func() {
			if l, err = la.ParallelCholesky(a, 0, workers); err == nil {
				sink += l.At(n-1, n-1)
			}
		})
	}
	cholN, chol1 := chol(e.nproc), chol(1)
	if err != nil {
		return fmt.Errorf("cholesky: %w", err)
	}
	out.setLayer("la.cholesky_ms.n512", cholN/1e6)
	out.setLayer("la.cholesky_ms.n512_w1", chol1/1e6)
	out.setLayer("la.cholesky_gflops.n512", float64(n)*float64(n)*float64(n)/3/cholN)
	inv := func(workers int) float64 {
		return timeOp(200*time.Millisecond, 3, 1, func() { sink += la.ParallelCholInverse(l, workers).At(0, 0) })
	}
	out.setLayer("la.chol_inverse_ms.n512", inv(e.nproc)/1e6)
	out.setLayer("la.chol_inverse_ms.n512_w1", inv(1)/1e6)

	// Rank-k extension and packed triangular solves at the size the warm
	// workload's factor reaches.
	n, k := 1024, 4
	if e.smoke {
		n = 256
	}
	big := spd(n+k, rng)
	lead := la.NewMatrix(n, n)
	cols, corner := la.NewMatrix(k, n), la.NewMatrix(k, k)
	for i := 0; i < n; i++ {
		copy(lead.Row(i), big.Row(i)[:n])
	}
	for j := 0; j < k; j++ {
		copy(cols.Row(j), big.Row(n + j)[:n])
		copy(corner.Row(j), big.Row(n + j)[n:])
	}
	ll, err := la.ParallelCholesky(lead, 0, e.nproc)
	if err != nil {
		return fmt.Errorf("cholesky n=%d: %w", n, err)
	}
	base := la.PackChol(ll)
	var samples []float64
	for r := 0; r < 7; r++ {
		t := base.Clone()
		t0 := time.Now()
		if _, err := t.AppendRows(cols, corner, 0, e.nproc); err != nil {
			return fmt.Errorf("append rows: %w", err)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	out.setLayer("la.append_rows_ms.n1024_k4", median(samples)/1e6)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	out.setLayer("la.tri_solve_us.n1024", timeOp(100*time.Millisecond, 5, 1, func() { sink += base.SolveVec(rhs)[0] })/1e3)
	x, y := make([]float64, 4096), make([]float64, 4096)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	out.setLayer("la.dot_ns.n4096", timeOp(50*time.Millisecond, 5, 200, func() { sink += la.Dot(x, y) }))
	return nil
}

// recsysData evaluates perTask feasible LHS points for each of delta
// seeded recsys tasks and returns them as normalized training data — the
// shape of a tune workload's history at that size.
func recsysData(delta, perTask int, rng *rand.Rand) (*surrogate.Dataset, error) {
	_, prob, err := scenarioProblem("recsys")
	if err != nil {
		return nil, err
	}
	tasks, err := sample.FeasibleLHS(prob.Tasks, delta, rng)
	if err != nil {
		return nil, err
	}
	d := &surrogate.Dataset{Dim: prob.Tuning.Dim(), X: make([][][]float64, delta), Y: make([][]float64, delta)}
	for i, task := range tasks {
		xs, err := sample.FeasibleLHS(prob.Tuning, perTask, rng)
		if err != nil {
			return nil, err
		}
		for _, x := range xs {
			y, err := prob.Objective(task, x)
			if err != nil {
				return nil, err
			}
			d.X[i] = append(d.X[i], prob.Tuning.Normalize(x))
			d.Y[i] = append(d.Y[i], y[0])
		}
	}
	return d, nil
}

// splitData cuts the last tail samples of every task off d.
func splitData(d *surrogate.Dataset, tail int) (head, rest *surrogate.Dataset) {
	head = &surrogate.Dataset{Dim: d.Dim, X: make([][][]float64, len(d.X)), Y: make([][]float64, len(d.Y))}
	rest = &surrogate.Dataset{Dim: d.Dim, X: make([][][]float64, len(d.X)), Y: make([][]float64, len(d.Y))}
	for i := range d.X {
		cut := len(d.X[i]) - tail
		head.X[i], head.Y[i] = d.X[i][:cut], d.Y[i][:cut]
		rest.X[i], rest.Y[i] = d.X[i][cut:], d.Y[i][cut:]
	}
	return head, rest
}

// appendInPairs feeds rest to m one sample per task at a time (k = number
// of tasks = 2 on the big dataset) and returns the median milliseconds per
// append.
func appendInPairs(m surrogate.Incremental, rest *surrogate.Dataset, workers int) (float64, error) {
	var samples []float64
	for j := range rest.X[0] {
		delta := &surrogate.Dataset{Dim: rest.Dim, X: make([][][]float64, len(rest.X)), Y: make([][]float64, len(rest.Y))}
		for i := range rest.X {
			delta.X[i], delta.Y[i] = rest.X[i][j:j+1], rest.Y[i][j:j+1]
		}
		t0 := time.Now()
		if err := m.Append(delta, workers); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(samples), nil
}

// layerModels measures the gp, surrogate and opt layers on two datasets
// shaped like the tune workloads' histories: 3 tasks × 50 (the cold
// workload's reach at the paper's ε = 50) and 2 tasks × 460, fitted at 800
// and grown to 920 two points at a time (the warm regime).
func layerModels(e *env, out *outcome, rng *rand.Rand) error {
	smallPer, bigPer, tail := 50, 460, 60
	if e.smoke {
		smallPer, bigPer, tail = 12, 40, 8
	}
	small, err := recsysData(3, smallPer, rng)
	if err != nil {
		return err
	}
	big, err := recsysData(2, bigPer, rng)
	if err != nil {
		return err
	}
	head, rest := splitData(big, tail)
	bigFit := surrogate.FitOptions{NumStarts: 1, MaxIter: 10, Workers: e.nproc, Seed: e.seed}

	t0 := time.Now()
	lcm150, err := gp.FitLCM(small, gp.FitOptions{Workers: e.nproc, Seed: e.seed})
	if err != nil {
		return fmt.Errorf("gp.FitLCM n150: %w", err)
	}
	out.setLayer("gp.fit_lcm_ms.n150", ms(time.Since(t0)))
	t0 = time.Now()
	if _, err := lcm150.LeaveOneOut(); err != nil {
		return fmt.Errorf("gp LOO: %w", err)
	}
	out.setLayer("gp.loo_ms.n150", ms(time.Since(t0)))

	t0 = time.Now()
	lcm800, err := gp.FitLCM(head, gp.FitOptions{NumStarts: bigFit.NumStarts, MaxIter: bigFit.MaxIter, Workers: e.nproc, Seed: e.seed})
	if err != nil {
		return fmt.Errorf("gp.FitLCM n800: %w", err)
	}
	out.setLayer("gp.fit_lcm_ms.n800", ms(time.Since(t0)))
	var appendMs []float64
	for j := range rest.X[0] {
		t0 = time.Now()
		err := lcm800.AppendObservations([][]float64{rest.X[0][j], rest.X[1][j]}, []int{0, 1}, []float64{rest.Y[0][j], rest.Y[1][j]}, e.nproc)
		if err != nil {
			return fmt.Errorf("gp append: %w", err)
		}
		appendMs = append(appendMs, ms(time.Since(t0)))
	}
	out.setLayer("gp.append_obs_ms.n920_k2", median(appendMs))
	ws := lcm800.NewPredictWorkspace()
	probe := sample.LatinHypercube(64, big.Dim, rng)
	i := 0
	out.setLayer("gp.predict_into_us.n920", timeOp(100*time.Millisecond, 5, 64, func() {
		m, v := lcm800.PredictInto(ws, i&1, probe[i&63])
		sink += m + v
		i++
	})/1e3)

	// The search phase as core runs it: PSO with default parameters
	// minimizing −EI of the model's posterior for one task.
	yBest := math.Inf(1)
	for _, y := range big.Y[0] {
		yBest = math.Min(yBest, y)
	}
	var res opt.Result
	psoNs := timeOp(300*time.Millisecond, 3, 1, func() {
		res = opt.PSO(func(x []float64) float64 {
			m, v := lcm800.PredictInto(ws, 0, x)
			return -acq.ExpectedImprovement(m, v, yBest)
		}, big.Dim, opt.PSOParams{}, rand.New(rand.NewSource(e.seed)))
	})
	out.setLayer("opt.pso_ms.ei_n920", psoNs/1e6)
	out.setLayer("opt.pso_evals", float64(res.Evals))

	for _, kind := range surrogate.Kinds() {
		f, err := surrogate.New(kind)
		if err != nil {
			return err
		}
		t0 := time.Now()
		m, err := f.Fit(small, surrogate.FitOptions{Workers: e.nproc, Seed: e.seed})
		if err != nil {
			return fmt.Errorf("surrogate %s fit: %w", kind, err)
		}
		out.setLayer("surrogate.fit_ms."+kind, ms(time.Since(t0)))
		blob, err := m.MarshalBinary()
		if err != nil {
			return fmt.Errorf("surrogate %s snapshot: %w", kind, err)
		}
		out.setLayer("surrogate.snapshot_bytes."+kind, float64(len(blob)))

		bm, err := f.Fit(head, bigFit)
		if err != nil {
			return fmt.Errorf("surrogate %s fit n800: %w", kind, err)
		}
		if inc, ok := bm.(surrogate.Incremental); ok {
			perAppend, err := appendInPairs(inc, rest, e.nproc)
			if err != nil {
				return fmt.Errorf("surrogate %s append: %w", kind, err)
			}
			out.setLayer("surrogate.append_ms."+kind, perAppend)
		}
		bws := bm.NewWorkspace()
		j := 0
		out.setLayer("surrogate.predict_us."+kind, timeOp(50*time.Millisecond, 5, 64, func() {
			mu, v := bm.PredictInto(bws, j&1, probe[j&63])
			sink += mu + v
			j++
		})/1e3)
	}

	rosen := func(x, g []float64) float64 {
		f := 0.0
		for i := range g {
			g[i] = 0
		}
		for i := 0; i+1 < len(x); i++ {
			a, b := x[i+1]-x[i]*x[i], 1-x[i]
			f += 100*a*a + b*b
			g[i] += -400*a*x[i] - 2*b
			g[i+1] += 200 * a
		}
		return f
	}
	x0 := make([]float64, 20)
	for i := range x0 {
		x0[i] = -1.2 + 0.1*rng.Float64()
	}
	var lres opt.Result
	out.setLayer("opt.lbfgs_ms.rosenbrock20", timeOp(50*time.Millisecond, 3, 1, func() { lres = opt.LBFGS(rosen, x0, opt.LBFGSParams{MaxIter: 500}) })/1e6)
	out.setLayer("opt.lbfgs_iters", float64(lres.Evals))
	return nil
}

// layerSmall covers the layers no optimisation is expected to move; they
// are listed so that a regression there still names its layer.
func layerSmall(e *env, out *outcome, rng *rand.Rand) error {
	mu, v := rng.Float64(), 0.1+rng.Float64()
	out.setLayer("acq.ei_ns", timeOp(20*time.Millisecond, 5, 1000, func() { sink += acq.ExpectedImprovement(mu, v, 0.4) }))
	for _, name := range []string{"gemm", "recsys", "analytical"} {
		_, prob, err := scenarioProblem(name)
		if err != nil {
			return err
		}
		tasks, err := sample.FeasibleLHS(prob.Tasks, 1, rng)
		if err != nil {
			return err
		}
		xs, err := sample.FeasibleLHS(prob.Tuning, 16, rng)
		if err != nil {
			return err
		}
		i := 0
		var oerr error
		out.setLayer("bench.objective_ns."+name, timeOp(20*time.Millisecond, 5, 64, func() {
			y, err := prob.Objective(tasks[0], xs[i&15])
			if err != nil {
				oerr = err
				return
			}
			sink += y[0]
			i++
		}))
		if oerr != nil {
			return oerr
		}
		if name != "gemm" {
			continue
		}
		dst := make([]float64, prob.Tuning.Dim())
		out.setLayer("space.normalize_ns.gemm", timeOp(20*time.Millisecond, 5, 1000, func() {
			prob.Tuning.NormalizeInto(dst, xs[i&15])
			sink += dst[0]
			i++
		}))
		var lerr error
		out.setLayer("sample.feasible_lhs_ms.gemm", timeOp(50*time.Millisecond, 5, 1, func() {
			if _, err := sample.FeasibleLHS(prob.Tuning, 25, rng); err != nil {
				lerr = err
			}
		})/1e6)
		if lerr != nil {
			return lerr
		}
	}
	r := ring.New("http://127.0.0.1:1", "http://127.0.0.1:2")
	owned := map[string]float64{}
	const names = 384
	for i := 0; i < names; i++ {
		o, _ := r.Owner(fmt.Sprintf("closed-%d-%04d", e.seed, i))
		owned[o]++
	}
	most := 0.0
	for _, n := range owned {
		most = math.Max(most, n)
	}
	out.setLayer("ring.placement_skew", most/(names/float64(r.Len())))
	i := 0
	out.setLayer("ring.owner_ns", timeOp(20*time.Millisecond, 5, 1000, func() {
		o, _ := r.Owner("closed-study-name")
		i += len(o)
	}))
	sink += float64(i)
	return nil
}

func layerHistdb(e *env, out *outcome, rng *rand.Rand) error {
	dir, err := os.MkdirTemp(e.work, "histdb-")
	if err != nil {
		return err
	}
	rec := func(i int) histdb.Record {
		return histdb.Record{
			Problem: "bench", Task: []float64{1.5, 0.95}, Phase: "search",
			Config:    []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), float64(i)},
			Requested: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), float64(i)},
			Outputs:   []float64{rng.Float64()},
		}
	}
	appendUs := func(name string, group, n int) (float64, error) {
		base := filepath.Join(dir, name)
		w, err := histdb.OpenWAL(base, histdb.WALOptions{GroupCommit: group})
		if err != nil {
			return 0, err
		}
		samples := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			r := rec(i)
			t0 := time.Now()
			if err := w.Append(r); err != nil {
				w.Close()
				return 0, err
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		if group > 1 {
			return stats.Mean(samples), nil // the fsync lands on every group-th append
		}
		st, err := os.Stat(histdb.WalPath(base))
		if err != nil {
			return 0, err
		}
		out.setLayer("histdb.wal_bytes_per_record", float64(st.Size())/float64(n))
		return median(samples), nil
	}
	n := 400
	if e.smoke {
		n = 40
	}
	us, err := appendUs("fsync", 1, n)
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	out.setLayer("histdb.wal_append_fsync_us", us)
	if us, err = appendUs("group8", 8, n); err != nil {
		return fmt.Errorf("wal group append: %w", err)
	}
	out.setLayer("histdb.wal_append_group8_us", us)

	big := 5000
	if e.smoke {
		big = 300
	}
	base := filepath.Join(dir, "replay")
	w, err := histdb.OpenWAL(base, histdb.WALOptions{GroupCommit: big})
	if err != nil {
		return err
	}
	for i := 0; i < big; i++ {
		if err := w.Append(rec(i)); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if w, err = histdb.OpenWAL(base, histdb.WALOptions{}); err != nil {
		return fmt.Errorf("wal reopen: %w", err)
	}
	out.setLayer("histdb.open_replay_ms.n5000", ms(time.Since(t0)))
	if w.Len() != big {
		w.Close()
		return fmt.Errorf("wal replayed %d records, wrote %d", w.Len(), big)
	}
	t0 = time.Now()
	err = w.Compact()
	out.setLayer("histdb.compact_ms.n5000", ms(time.Since(t0)))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal compact: %w", err)
	}

	db := histdb.New()
	loadN := 800
	if e.smoke {
		loadN = 80
	}
	for i := 0; i < loadN; i++ {
		db.Append(rec(i))
	}
	path := filepath.Join(dir, "load.json")
	if err := db.Save(path); err != nil {
		return err
	}
	var lerr error
	out.setLayer("histdb.load_ms.n800", timeOp(50*time.Millisecond, 3, 1, func() {
		if got, err := histdb.Load(path); err != nil {
			lerr = err
		} else if got.Len() != loadN {
			lerr = fmt.Errorf("loaded %d records, saved %d", got.Len(), loadN)
		}
	})/1e6)
	return lerr
}

// layerServe replays the sample against serve.Server.Handler() in-process:
// no sockets, no client library, no router — the handler, the engine and
// the WAL.
func layerServe(e *env, out *outcome, _ *rand.Rand) error {
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{DataDir: dir})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var reqBytes, respBytes, calls float64
	do := func(method, path string, body any, into any) (time.Duration, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return 0, err
			}
		}
		n := buf.Len()
		req := httptest.NewRequest(method, path, &buf)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		d := time.Since(t0)
		if rr.Code >= 300 {
			return d, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rr.Code, strings.TrimSpace(rr.Body.String()))
		}
		if strings.HasSuffix(path, "/suggest") || strings.HasSuffix(path, "/report") {
			reqBytes, respBytes, calls = reqBytes+float64(n), respBytes+float64(rr.Body.Len()), calls+1
		}
		if into != nil {
			return d, json.Unmarshal(rr.Body.Bytes(), into)
		}
		return d, nil
	}
	studies := 6
	if e.smoke {
		studies = 2
	}
	var createMs, suggestUs, reportUs, historyUs, exportMs []float64
	fail := func(err error) error {
		srv.Close()
		return err
	}
	for idx := 0; idx < studies; idx++ {
		rs, err := closedStudy(e, "handler", idx)
		if err != nil {
			return fail(err)
		}
		d, err := do(http.MethodPost, "/studies", rs.spec, nil)
		if err != nil {
			return fail(err)
		}
		createMs = append(createMs, ms(d))
		base := "/studies/" + rs.spec.Name
		for {
			var resp struct {
				Suggestion *client.Suggestion `json:"suggestion"`
				Done       bool               `json:"done"`
			}
			d, err := do(http.MethodPost, base+"/suggest", map[string]int{"task": -1}, &resp)
			if err != nil {
				return fail(err)
			}
			if resp.Done || resp.Suggestion == nil {
				break
			}
			suggestUs = append(suggestUs, float64(d.Nanoseconds())/1e3)
			sg := resp.Suggestion
			y, err := rs.st.problem.Objective(rs.spec.Tasks[sg.Task], sg.X)
			if err != nil {
				return fail(err)
			}
			if d, err = do(http.MethodPost, base+"/report", map[string]any{"id": sg.ID, "y": y}, nil); err != nil {
				return fail(err)
			}
			reportUs = append(reportUs, float64(d.Nanoseconds())/1e3)
		}
		if d, err = do(http.MethodGet, base+"/history", nil, nil); err != nil {
			return fail(err)
		}
		historyUs = append(historyUs, float64(d.Nanoseconds())/1e3)
		if d, err = do(http.MethodGet, base+"/snapshot", nil, nil); err != nil {
			return fail(err)
		}
		exportMs = append(exportMs, ms(d))
	}
	if err := srv.Close(); err != nil {
		return err
	}
	out.setLayer("serve.create_handler_ms", median(createMs))
	out.setLayer("serve.suggest_handler_us", median(suggestUs))
	out.setLayer("serve.report_handler_us", median(reportUs))
	out.setLayer("serve.history_handler_us", median(historyUs))
	out.setLayer("serve.snapshot_export_ms", median(exportMs))
	out.setLayer("serve.req_bytes", reqBytes/calls)
	out.setLayer("serve.resp_bytes", respBytes/calls)

	t0 := time.Now()
	srv, err = serve.NewServer(serve.Config{DataDir: dir})
	if err != nil {
		return fmt.Errorf("resuming %d studies: %w", studies, err)
	}
	out.setLayer("serve.resume_ms_per_study", ms(time.Since(t0))/float64(studies))
	return srv.Close()
}

// layerWire drives the same sample through gptune/client against one real
// gptuned child over TCP, first directly and then through a gptune-router
// child in front of it. Direct minus the handler time is the HTTP + JSON
// share; routed minus direct is the router hop.
func layerWire(e *env, out *outcome, _ *rand.Rand) error {
	cl, err := e.startCluster(1)
	if err != nil {
		return err
	}
	drained := false
	defer func() {
		if !drained {
			cl.kill()
		}
	}()
	studies := 4
	if e.smoke {
		studies = 2
	}
	// The workload's own closed-loop driver, untraced and with a private log.
	quiet := e.untraced()
	rtt := func(prefix, base string) (suggestUs, reportUs float64, err error) {
		c, err := e.newClient(0, e.nproc, base)
		if err != nil {
			return 0, 0, err
		}
		lg := &driveLog{}
		for idx := 0; idx < studies; idx++ {
			rs, err := closedStudy(e, prefix, idx)
			if err != nil {
				return 0, 0, err
			}
			if _, err := driveRemote(quiet, lg, c, rs, 0); err != nil {
				return 0, 0, err
			}
		}
		if err := lg.asError(prefix); err != nil {
			return 0, 0, err
		}
		return 1e3 * median(lg.latMs["suggest"]), 1e3 * median(lg.latMs["report"]), nil
	}
	ds, dr, err := rtt("direct", cl.replicas[0].url)
	if err != nil {
		return fmt.Errorf("direct client: %w", err)
	}
	rs, rr, err := rtt("routed", cl.router.url)
	if err != nil {
		return fmt.Errorf("routed client: %w", err)
	}
	out.setLayer("client.rtt_direct_us.suggest", ds)
	out.setLayer("client.rtt_direct_us.report", dr)
	out.setLayer("router.hop_us.suggest", rs-ds)
	out.setLayer("router.hop_us.report", rr-dr)
	_, _, err = cl.drain()
	drained = true
	return err
}
