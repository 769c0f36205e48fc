package la

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// asmStmt is one statement of an assembly file: an instruction, a label
// ("name:") or a directive, with the line it is on.
type asmStmt struct {
	text string
	line int
}

// asmBlocks splits an assembly file into its functions (TEXT to the next
// TEXT or #define) and its macro bodies, each a list of statements: comments
// and line continuations dropped, the ';'-separated instructions of a macro
// line one statement each. Labels and PC-relative branches resolve within a
// block.
func asmBlocks(src string) [][]asmStmt {
	var blocks [][]asmStmt
	var cur []asmStmt
	flush := func() {
		if len(cur) > 0 {
			blocks = append(blocks, cur)
		}
		cur = nil
	}
	inMacro := false
	for i, line := range strings.Split(src, "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, `\`)
		line = strings.TrimSpace(strings.TrimSuffix(line, `\`))
		switch {
		case strings.HasPrefix(line, "#define"):
			flush()
			inMacro = cont
			continue
		case strings.HasPrefix(line, "TEXT"):
			flush()
		}
		for _, st := range strings.Split(line, ";") {
			if st = strings.TrimSpace(st); st != "" && !strings.HasPrefix(st, "#") {
				cur = append(cur, asmStmt{st, i + 1})
			}
		}
		if inMacro && !cont {
			flush()
			inMacro = false
		}
	}
	flush()
	return blocks
}

// TestLoopHeadsAligned: in la's assembly every target of a branch back — a
// loop head, named by a label or reached by a negative N(PC) — comes right
// after PCALIGN $64, so where each loop starts against the 64-byte fetch
// blocks is fixed, whatever the size of the code before it.
func TestLoopHeadsAligned(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		heads := 0
		for _, b := range asmBlocks(string(src)) {
			labels := map[string]int{}
			for i, st := range b {
				if strings.HasSuffix(st.text, ":") {
					labels[strings.TrimSuffix(st.text, ":")] = i
				}
			}
			aligned := func(target int) bool {
				return target > 0 && b[target-1].text == "PCALIGN $64"
			}
			for i, st := range b {
				fields := strings.Fields(st.text)
				if len(fields) != 2 || fields[0][0] != 'J' {
					continue
				}
				op := fields[1]
				target := -1
				if at, ok := labels[op]; ok && at < i {
					target = at
				} else if back, ok := strings.CutSuffix(op, "(PC)"); ok {
					n, err := strconv.Atoi(back)
					if err != nil || n >= 0 {
						continue
					}
					// N(PC) counts instructions: every statement but a label.
					for target = i; n < 0 && target > 0; {
						target--
						if !strings.HasSuffix(b[target].text, ":") {
							n++
						}
					}
				}
				if target < 0 {
					continue // forward, or out of the block
				}
				heads++
				if !aligned(target) {
					t.Errorf("%s:%d: %q branches back to %q (line %d), which has no PCALIGN $64 before it",
						f, st.line, st.text, b[target].text, b[target].line)
				}
			}
		}
		if heads == 0 {
			t.Errorf("%s: no branch back found; the parse is broken", f)
		}
		t.Logf("%s: %d branches back checked", f, heads)
	}
}
