package experiments

import (
	"io"

	"repro/internal/core"
)

// Table3MHDRow compares single-task and multitask tuning for one MHD code.
type Table3MHDRow struct {
	App           string
	SingleMin     float64 // best runtime found for the expensive task
	SingleSimTime float64 // total simulated application time spent tuning
	MultiMin      float64
	MultiSimTime  float64
}

// Table3MHD reproduces Table 3 (lower): M3D_C1 compares single-task
// (t=3 steps, ε_tot=80) against multitask (t = 1,1,1,3, ε_tot=20), and
// NIMROD compares (t=15, ε_tot=80) against (t = 3,3,3,15, ε_tot=20). The
// headline result: multitask reaches a similar minimum while spending far
// less total application time, because most of its budget runs cheap
// few-step tasks. epsSingle scales the ε_tot=80 budget (multitask uses a
// quarter of it, as in the paper).
func Table3MHD(epsSingle int, seed int64, workers int) []Table3MHDRow {
	if epsSingle <= 0 {
		epsSingle = 80
	}
	epsMulti := epsSingle / 4
	if epsMulti < 4 {
		epsMulti = 4
	}
	var rows []Table3MHDRow
	type setup struct {
		scenario   string // registry name; doubles as the row label
		expensive  float64
		cheapTasks []float64
	}
	for _, su := range []setup{
		{scenario: "m3dc1", expensive: 3, cheapTasks: []float64{1, 1, 1}},
		{scenario: "nimrod", expensive: 15, cheapTasks: []float64{3, 3, 3}},
	} {
		p := scenarioProblem(su.scenario, nil)
		opts := reducedOptions(seed, workers)
		oS := opts
		oS.EpsTot = epsSingle
		resS := must(core.Run(p, [][]float64{{su.expensive}}, oS))
		var tasks [][]float64
		for _, t := range su.cheapTasks {
			tasks = append(tasks, []float64{t})
		}
		tasks = append(tasks, []float64{su.expensive})
		oM := opts
		oM.EpsTot = epsMulti
		resM := must(core.Run(p, tasks, oM))
		rows = append(rows, Table3MHDRow{
			App:           su.scenario,
			SingleMin:     bestOf(&resS.Tasks[0]),
			SingleSimTime: sumSimTime(resS),
			MultiMin:      bestOf(&resM.Tasks[len(resM.Tasks)-1]),
			MultiSimTime:  sumSimTime(resM),
		})
	}
	return rows
}

// PrintTable3MHD writes the lower Table 3.
func PrintTable3MHD(w io.Writer, rows []Table3MHDRow) {
	fprintf(w, "Table 3 (lower): M3D_C1 and NIMROD, single-task vs multitask\n")
	fprintf(w, "  %-8s %14s %14s %14s %14s\n", "app", "single min", "single total", "multi min", "multi total")
	for _, r := range rows {
		fprintf(w, "  %-8s %13.2fs %13.0fs %13.2fs %13.0fs\n",
			r.App, r.SingleMin, r.SingleSimTime, r.MultiMin, r.MultiSimTime)
	}
	fprintf(w, "  (totals are simulated application time; multitask should be much lower)\n")
}
