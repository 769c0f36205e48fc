package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed2021.golden from the current build's output")

// TestQuickOutputGolden pins what `experiments -quick -run all -seed 2021`
// prints, with every wall-clock field masked: every experiment runs at quick
// scale and seed 2021 on two workers (worker count never moves a result),
// under the command's "=== ID: description (quick=true) ===" headers. A
// change that moves an experiment's output on purpose re-records the golden
// with
//
//	go test ./internal/experiments -run QuickOutputGolden -update
//
// and says why in an Experiments-Move: trailer.
func TestQuickOutputGolden(t *testing.T) {
	var out bytes.Buffer
	for _, s := range All() {
		fmt.Fprintf(&out, "=== %s: %s (quick=true) ===\n", s.ID, s.Description)
		s.Run(&out, true, 2021, 2)
		out.WriteString("\n") // the command's "done in" line, masked, leaves its blank line
	}
	got := maskWallClock(out.String())
	path := filepath.Join("testdata", "quick_seed2021.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// phaseRow is a Fig. 5a Table 3 row, whose middle columns are phase times.
var phaseRow = regexp.MustCompile(`^  (single-task|multitask) +[0-9]`)

// maskWallClock drops what depends on the clock from an experiments
// printout: the body of the Fig. 3 section (a timing study), the phase-time
// columns of Fig. 5a's Table 3 rows, keeping the label and the last column,
// and Fig. 5b's "Table 3: single stats" line.
func maskWallClock(s string) string {
	var b strings.Builder
	skip := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "=== ") {
			skip = strings.HasPrefix(line, "=== Fig3:")
			b.WriteString(line)
			continue
		}
		switch {
		case skip, strings.HasPrefix(line, "  Table 3: single stats"):
		case phaseRow.MatchString(line):
			f := strings.Fields(line)
			fmt.Fprintf(&b, "%s %s\n", f[0], f[len(f)-1])
		default:
			b.WriteString(line)
		}
	}
	return b.String()
}
