// Package all registers every workload in the tree: blank-importing it
// gives a binary the full scenario catalog — the five application
// simulators (which self-register on import) plus bench's own synthetic
// scenarios. cmd/gptune, cmd/gptuned, the benchmark and the conformance
// suite all import it; a binary that wants only specific workloads imports
// those app packages directly instead.
package all

import (
	_ "repro/internal/apps/analytical"
	_ "repro/internal/apps/hypre"
	_ "repro/internal/apps/mhd"
	_ "repro/internal/apps/scalapack"
	_ "repro/internal/apps/superlu"
	_ "repro/internal/bench"
)
