package experiments

import (
	"io"
	"sort"

	"repro/internal/apps/superlu"
	"repro/internal/bench"
	"repro/internal/core"
)

// Fig6Row is one task's tuner comparison: ratio of another tuner's best
// runtime over GPTune's (>1 means GPTune wins).
type Fig6Row struct {
	TaskLabel string
	GPTune    float64
	Others    map[string]float64 // tuner name → best runtime
	Ratios    map[string]float64 // tuner name → other/GPTune
}

// runComparison runs GPTune MLA across all tasks jointly and each baseline
// per task, all with ε_tot evaluations per task, each evaluation the minimum
// of repeats runs.
func runComparison(p *core.Problem, tasks [][]float64, labels []string, epsTot int, seed int64, workers, repeats int) []Fig6Row {
	opts := paperOptions(seed, workers)
	opts.EpsTot = epsTot
	mla, others := compare(core.MinOfRepeats(p, repeats), tasks, opts, baselines(), seed+100)
	rows := make([]Fig6Row, len(tasks))
	for i, tr := range mla {
		rows[i] = Fig6Row{
			TaskLabel: labels[i],
			GPTune:    bestOf(tr),
			Others:    map[string]float64{},
			Ratios:    map[string]float64{},
		}
		for name, rs := range others {
			rows[i].Others[name] = bestOf(rs[i])
			rows[i].Ratios[name] = bestOf(rs[i]) / rows[i].GPTune
		}
	}
	return rows
}

// Fig6QR reproduces Fig. 6 (left): GPTune vs OpenTuner vs HpBandSter on
// PDGEQRF with δ=10 random tasks (m, n < 20000) and ε_tot=10 on 64 nodes.
// The paper reports GPTune beating OpenTuner on 7/10 tasks (up to 4.9×) and
// HpBandSter on 8/10 (up to 2.9×).
func Fig6QR(delta, epsTot int, seed int64, workers int) []Fig6Row {
	if delta <= 0 {
		delta = 10
	}
	if epsTot <= 0 {
		epsTot = 10
	}
	p := scenarioProblem("qr", bench.Params{"nodes": 64})
	tasks := randomTasks(p, delta, seed)
	labels := make([]string, len(tasks))
	for i, t := range tasks {
		labels[i] = p.Tasks.Describe(t)
	}
	return runComparison(p, tasks, labels, epsTot, seed, workers, 3)
}

// Fig6SuperLU reproduces Fig. 6 (right): the same comparison on
// SuperLU_DIST factorization time for the δ=7 PARSEC matrices (Si2, SiH4,
// SiNa, Na5, benzene, Si10H16, Si5H12) with ε_tot=20 on 32 nodes. The paper
// reports GPTune beating OpenTuner on 6/7 (up to 1.6×) and HpBandSter on
// 7/7 (up to 1.3×).
func Fig6SuperLU(epsTot int, seed int64, workers int) []Fig6Row {
	if epsTot <= 0 {
		epsTot = 20
	}
	p := scenarioProblem("superlu", nil)
	var tasks [][]float64
	var labels []string
	for i := 0; i < 7; i++ {
		tasks = append(tasks, []float64{float64(i)})
		labels = append(labels, superlu.PARSEC[i].Name)
	}
	return runComparison(p, tasks, labels, epsTot, seed, workers, 1)
}

// PrintFig6 writes the ratio table and win counts (the paper's legend).
func PrintFig6(w io.Writer, title string, rows []Fig6Row) {
	fprintf(w, "%s\n", title)
	wins := map[string]int{}
	maxRatio := map[string]float64{}
	var names []string
	for name := range rows[0].Ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, r := range rows {
		fprintf(w, "  %-28s gptune=%.4fs", r.TaskLabel, r.GPTune)
		for _, name := range names {
			fprintf(w, "  %s=%.4fs (ratio %.2f)", name, r.Others[name], r.Ratios[name])
			if r.Ratios[name] >= 1 {
				wins[name]++
			}
			if r.Ratios[name] > maxRatio[name] {
				maxRatio[name] = r.Ratios[name]
			}
		}
		fprintf(w, "\n")
	}
	for _, name := range names {
		fprintf(w, "  GPTune beats or ties %s on %d/%d tasks, up to %.2fx\n",
			name, wins[name], len(rows), maxRatio[name])
	}
}
