package experiments

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
)

// Fig3Row is one (ε_tot, workers) measurement of the modeling and search
// phase times.
type Fig3Row struct {
	EpsTot   int
	Workers  int
	KernelN  int // LCM covariance dimension δ·ε
	Modeling time.Duration
	Search   time.Duration
}

// Fig3 reproduces Fig. 3: modeling- and search-phase wall time versus total
// sample count for δ=20 analytical tasks, at 1 worker and `par` workers
// (the paper uses 32 MPI processes; here goroutine workers bounded by the
// host's cores). As in the paper, the initial sample count is ε_tot−1 so
// exactly one MLA iteration (one modeling phase + one search phase) is
// timed; a row's EpsTot is the ε samples per task that iteration models.
// The paper's theoretical scalings are O(ε³δ³) for modeling and O(ε²δ²) for
// search.
func Fig3(epsList []int, par int, seed int64) []Fig3Row {
	if len(epsList) == 0 {
		epsList = []int{2, 4, 8, 16}
	}
	if par <= 1 {
		par = 8
	}
	const delta = 20
	tasks := make([][]float64, delta)
	for i := range tasks {
		tasks[i] = []float64{float64(i) * 0.5}
	}
	var rows []Fig3Row
	for _, eps := range epsList {
		for _, workers := range []int{1, par} {
			m, s := timeOneIteration(tasks, eps, workers, seed)
			rows = append(rows, Fig3Row{
				EpsTot:   eps,
				Workers:  workers,
				KernelN:  delta * eps,
				Modeling: m,
				Search:   s,
			})
		}
	}
	return rows
}

// timeOneIteration runs MLA on the analytical tasks with ε initial samples
// and a budget of ε+1, so exactly one modeling phase and one search phase
// run, and returns the engine's own times for them (core.PhaseStats).
func timeOneIteration(tasks [][]float64, eps, workers int, seed int64) (modeling, search time.Duration) {
	res := must(core.Run(scenarioProblem("analytical", nil), tasks, core.Options{
		EpsTot:       eps + 1,
		InitFraction: float64(eps) / float64(eps+1),
		Workers:      workers,
		Seed:         seed,
		Q:            2,
		NumStarts:    4,
		ModelMaxIter: 4, // timing study: fixed small iteration count per start
		Search:       opt.PSOParams{Particles: 20, MaxIter: 30},
	}))
	return res.Stats.Modeling, res.Stats.Search
}

// PrintFig3 writes the timing table plus the parallel speedups (the paper
// reports 32× modeling and 11× search speedup at its largest size).
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fprintf(w, "Fig 3: modeling/search time, delta=20 tasks, one MLA iteration\n")
	fprintf(w, "  %8s %8s %9s %14s %14s\n", "eps_tot", "workers", "kernel N", "modeling", "search")
	for _, r := range rows {
		fprintf(w, "  %8d %8d %9d %14v %14v\n", r.EpsTot, r.Workers, r.KernelN, r.Modeling, r.Search)
	}
	// Speedups per eps (serial / parallel).
	byEps := map[int][]Fig3Row{}
	for _, r := range rows {
		byEps[r.EpsTot] = append(byEps[r.EpsTot], r)
	}
	fprintf(w, "  speedups (1 worker vs parallel):\n")
	for _, r := range rows {
		if r.Workers != 1 {
			continue
		}
		for _, p := range byEps[r.EpsTot] {
			if p.Workers == 1 {
				continue
			}
			fprintf(w, "   eps=%d: modeling %.2fx, search %.2fx\n", r.EpsTot,
				float64(r.Modeling)/float64(p.Modeling),
				float64(r.Search)/float64(p.Search))
		}
	}
}
