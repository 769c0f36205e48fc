package experiments

import (
	"io"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
)

// Table4Row is one (nodes, ε_tot) experiment: final performance (WinTask vs
// each baseline) and anytime performance (mean stability per tuner).
type Table4Row struct {
	Nodes     int
	EpsTot    int
	WinTask   map[string]float64 // baseline name → fraction of tasks GPTune wins
	Stability map[string]float64 // tuner name ("gptune" included) → mean stability
}

// Table4 reproduces Table 4: hypre with δ random grid tasks
// (10 ≤ n_i ≤ 100), ε_tot ∈ {10, 20, 30}, on 1 and 4 nodes. The paper uses
// δ=30; delta scales that down. WinTask is the fraction of tasks where
// GPTune's final minimum beats the baseline's; stability is the
// anytime-performance metric (mean best-so-far over the best any tuner
// found; smaller is better).
func Table4(delta int, epsTots []int, nodesList []int, seed int64, workers int) []Table4Row {
	if delta <= 0 {
		delta = 30
	}
	if len(epsTots) == 0 {
		epsTots = []int{10, 20, 30}
	}
	if len(nodesList) == 0 {
		nodesList = []int{1, 4}
	}
	var out []Table4Row
	for _, nodes := range nodesList {
		p := scenarioProblem("hypre", bench.Params{"nodes": float64(nodes)})
		tasks := randomTasks(p, delta, seed+int64(nodes))
		for _, eps := range epsTots {
			opts := paperOptions(seed, workers)
			opts.EpsTot = eps
			mla, others := compare(p, tasks, opts, baselines(), seed+1000)
			// Best over all tuners per task (the stability denominator).
			bestAny := make([]float64, delta)
			for i, tr := range mla {
				bestAny[i] = bestOf(tr)
				for _, rs := range others {
					bestAny[i] = math.Min(bestAny[i], bestOf(rs[i]))
				}
			}
			row := Table4Row{
				Nodes:     nodes,
				EpsTot:    eps,
				WinTask:   map[string]float64{},
				Stability: map[string]float64{"gptune": meanStability(mla, bestAny)},
			}
			for name, rs := range others {
				wins := 0
				for i, tr := range rs {
					if bestOf(mla[i]) <= bestOf(tr) {
						wins++
					}
				}
				row.WinTask[name] = float64(wins) / float64(delta)
				row.Stability[name] = meanStability(rs, bestAny)
			}
			out = append(out, row)
		}
	}
	return out
}

func meanStability(rs []*core.TaskResult, bestAny []float64) float64 {
	s := 0.0
	for i, tr := range rs {
		s += stability(tr, bestAny[i])
	}
	return s / float64(len(rs))
}

// PrintTable4 writes the WinTask/stability table in the paper's layout.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fprintf(w, "Table 4: hypre, GPTune vs OpenTuner (OT) and HpBandSter (HB)\n")
	fprintf(w, "  %5s %7s | %8s %8s | %10s %8s %8s\n",
		"nodes", "eps", "win(OT)", "win(HB)", "st(GPTune)", "st(OT)", "st(HB)")
	for _, r := range rows {
		fprintf(w, "  %5d %7d | %7.0f%% %7.0f%% | %10.2f %8.2f %8.2f\n",
			r.Nodes, r.EpsTot,
			100*r.WinTask["opentuner"], 100*r.WinTask["hpbandster"],
			r.Stability["gptune"], r.Stability["opentuner"], r.Stability["hpbandster"])
	}
	fprintf(w, "  (WinTask higher is better; stability smaller is better)\n")
}
