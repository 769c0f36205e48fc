package experiments

import "io"

// Spec describes one runnable experiment: the paper artifact ID, what it
// shows, and a runner at either full (reduced-reproduction) or quick scale.
type Spec struct {
	ID          string // e.g. "Fig2", "Tab4"
	Description string
	// Run executes the experiment and prints the paper-style summary. quick
	// selects the small-scale variant (the artifact's "*_exp" analogue).
	Run func(w io.Writer, quick bool, seed int64, workers int)
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{
			ID:          "Fig2",
			Description: "analytical objective of Eq.(11) for four tasks",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				PrintFig2(w, Fig2(401))
			},
		},
		{
			ID:          "Fig3",
			Description: "modeling/search phase time and parallel speedup",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				eps := []int{2, 4, 8, 16}
				if quick {
					eps = []int{2, 4}
				}
				PrintFig3(w, Fig3(eps, workers, seed))
			},
		},
		{
			ID:          "Fig4a",
			Description: "performance-model benefit on the analytical function",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				delta, eps := 10, []int{10, 20, 40}
				if quick {
					delta, eps = 5, []int{8}
				}
				PrintFig4Analytical(w, Fig4Analytical(delta, eps, seed, workers))
			},
		},
		{
			ID:          "Fig4b",
			Description: "Eq.(7) performance model on PDGEQRF",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				tasks, eps := 5, []int{10, 20, 40}
				if quick {
					tasks, eps = 3, []int{8}
				}
				PrintFig4QR(w, Fig4QR(tasks, eps, seed, workers))
			},
		},
		{
			ID:          "Fig5a",
			Description: "PDGEQRF single-task vs multitask (+ Table 3 upper)",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				budget := 100
				if quick {
					budget = 40
				}
				PrintFig5QR(w, Fig5QR(budget, seed, workers))
			},
		},
		{
			ID:          "Fig5b",
			Description: "PDSYEVX single-task vs multitask (+ Table 3 upper)",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				maxEps := 90
				if quick {
					maxEps = 24
				}
				PrintFig5EV(w, Fig5EV(maxEps, seed, workers))
			},
		},
		{
			ID:          "Tab3",
			Description: "M3D_C1 and NIMROD single vs multitask totals",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				eps := 80
				if quick {
					eps = 16
				}
				PrintTable3MHD(w, Table3MHD(eps, seed, workers))
			},
		},
		{
			ID:          "Fig6a",
			Description: "GPTune vs OpenTuner vs HpBandSter on PDGEQRF",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				delta, eps := 10, 10
				if quick {
					delta, eps = 4, 8
				}
				PrintFig6(w, "Fig 6 (left): PDGEQRF tuner comparison", Fig6QR(delta, eps, seed, workers))
			},
		},
		{
			ID:          "Fig6b",
			Description: "GPTune vs OpenTuner vs HpBandSter on SuperLU_DIST",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				eps := 20
				if quick {
					eps = 8
				}
				PrintFig6(w, "Fig 6 (right): SuperLU_DIST tuner comparison", Fig6SuperLU(eps, seed, workers))
			},
		},
		{
			ID:          "Tab4",
			Description: "hypre WinTask and stability vs baselines",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				delta, eps, nodes := 10, []int{10, 20, 30}, []int{1, 4}
				if quick {
					delta, eps, nodes = 4, []int{8}, []int{1}
				}
				PrintTable4(w, Table4(delta, eps, nodes, seed, workers))
			},
		},
		{
			ID:          "Fig7a",
			Description: "SuperLU_DIST Si2 multi-objective Pareto front (+ Table 5)",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				eps := 80
				if quick {
					eps = 16
				}
				PrintFig7Single(w, Fig7Single(eps, seed, workers))
			},
		},
		{
			ID:          "Fig7b",
			Description: "multi-objective single-task vs multitask fronts",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				eps := 20
				if quick {
					eps = 10
				}
				PrintFig7Multi(w, Fig7Multi(eps, seed, workers))
			},
		},
		{
			ID:          "Bench",
			Description: "workload-registry regression: MLA best vs known optimum per scenario",
			Run: func(w io.Writer, quick bool, seed int64, workers int) {
				delta, eps, seeds := 2, 30, 5
				if quick {
					delta, eps, seeds = 1, 10, 2
				}
				printBench(w, delta, eps, seed, seeds, workers)
			},
		},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Spec {
	for _, s := range All() {
		if s.ID == id {
			spec := s
			return &spec
		}
	}
	return nil
}
