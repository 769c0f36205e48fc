// ScaLAPACK PDGEQRF example: tune the dense QR factorization simulator with
// and without the paper's Eq. (7) analytical performance model, on several
// matrix shapes at once (the Section 6.4/Fig. 4-right workflow).
package main

import (
	"fmt"
	"log"

	"repro/gptune"
	"repro/internal/apps/scalapack"
	"repro/internal/bench"
)

func main() {
	// 16 Cori-Haswell-like nodes, matrices up to 20000² (the registry
	// defaults for "qr"); the app instance supplies the Eq. (7) model.
	sc, err := bench.Get("qr")
	if err != nil {
		log.Fatal(err)
	}
	problem, err := sc.Problem(nil)
	if err != nil {
		log.Fatal(err)
	}
	problem = gptune.MinOfRepeats(problem, 3) // min-of-3 runs, as the paper does for QR
	app := scalapack.NewQR(16, 20000)

	tasks := [][]float64{
		{12000, 8000},
		{18000, 18000},
		{6000, 15000},
	}
	opts := gptune.Options{
		EpsTot:  12,
		Seed:    7,
		Workers: 4,
		LogY:    true,
	}

	// Plain MLA.
	plain, err := gptune.Tune(problem, tasks, opts)
	if err != nil {
		log.Fatal(err)
	}

	// MLA with the Eq. (7) performance model; its t_flop/t_msg/t_vol
	// coefficients are re-fitted from observations before each modeling
	// phase (the Section 3.3 update phase).
	withModel, err := sc.Problem(nil)
	if err != nil {
		log.Fatal(err)
	}
	withModel = gptune.MinOfRepeats(withModel, 3)
	withModel.Model = app.PerfModel()
	optsModel := opts
	optsModel.FitModelCoeffs = true
	modeled, err := gptune.Tune(withModel, tasks, optsModel)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("task (m×n)        no-model best   with-model best   ratio")
	for i := range tasks {
		_, y0 := plain.Tasks[i].Best()
		_, y1 := modeled.Tasks[i].Best()
		fmt.Printf("%6.0f×%-6.0f   %10.3fs   %12.3fs   %6.3f\n",
			tasks[i][0], tasks[i][1], y0[0], y1[0], y0[0]/y1[0])
	}
	x, y := modeled.Tasks[1].Best()
	fmt.Printf("\nbest configuration for %4.0f×%4.0f: %s  (%.3fs)\n",
		tasks[1][0], tasks[1][1], withModel.Tuning.Describe(x), y[0])
}
