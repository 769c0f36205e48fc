package serve_test

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/gptune/api"
	"repro/internal/serve"
)

// TestMain doubles as the gptuned subprocess for the SIGKILL test: when the
// helper env var is set, the test binary runs a real server instead of the
// test suite, so killing it exercises the same process-death path as
// killing the daemon.
func TestMain(m *testing.M) {
	if os.Getenv("GPTUNED_TEST_HELPER") == "1" {
		runHelper()
		return
	}
	os.Exit(m.Run())
}

// runHelper serves the data directory named by the environment on an
// ephemeral port, printing "ADDR host:port" so the parent test can connect.
// It never exits on its own — the parent kills it.
func runHelper() {
	s, err := serve.NewServer(serve.Config{DataDir: os.Getenv("GPTUNED_TEST_DATA")})
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Println("ADDR", ln.Addr().String())
	if err := http.Serve(ln, s.Handler()); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
}

// startHelper launches the helper subprocess against dataDir and waits for
// its listen address.
func startHelper(t *testing.T, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), "GPTUNED_TEST_HELPER=1", "GPTUNED_TEST_DATA="+dataDir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			return cmd, addr
		}
		if strings.HasPrefix(line, "ERR ") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper failed to start: %s", line)
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("helper exited without printing an address (scan err: %v)", sc.Err())
	return nil, ""
}

// waitHealthy polls /healthz until the helper answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + api.HealthPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("helper never became healthy")
}

// TestServeSIGKILLRestartResumes is the end-to-end crash-safety acceptance
// test: a real server process is killed with SIGKILL mid-study; a fresh
// process over the same data directory must resume the study, re-paying at
// most the evaluation that was in flight, and finish with a history bitwise
// identical to an uninterrupted run's.
func TestServeSIGKILLRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const epsTot, seed, killAfter = 8, 13, 7
	tasks := [][]float64{{0.5}, {2}}
	spec := testSpec("victim", epsTot, seed)
	spec.Tasks = tasks

	// Uninterrupted reference, same spec, in-process (the HTTP surface is
	// identical; only process lifetime differs).
	rc := newTestServer(t).c
	ref := spec
	ref.Name = "ref"
	create(t, rc, ref)
	drive(t, rc, "ref", paper(tasks), -1)
	want := history(t, rc, "ref")

	dir := t.TempDir()
	cmd1, addr1 := startHelper(t, dir)
	base1 := "http://" + addr1
	waitHealthy(t, base1)
	c1 := newClient(t, base1)
	create(t, c1, spec)
	// Pay killAfter evaluations, then obtain (but do not report) one more
	// suggestion — the in-flight evaluation a real tuner would lose.
	paid := drive(t, c1, "victim", paper(tasks), killAfter)
	if _, err := c1.Suggest(ctx, "victim", -1); err != nil {
		t.Fatalf("in-flight suggest: %v", err)
	}

	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no shutdown hooks run
		t.Fatal(err)
	}
	cmd1.Wait()

	cmd2, addr2 := startHelper(t, dir)
	defer func() { cmd2.Process.Kill(); cmd2.Wait() }()
	base2 := "http://" + addr2
	waitHealthy(t, base2)
	c2 := newClient(t, base2)

	status, err := c2.Status(ctx, "victim")
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if status.Logged != killAfter {
		t.Fatalf("restarted server sees %d logged evaluations, want %d (every report must be durable before it is acknowledged)", status.Logged, killAfter)
	}

	// The restarted engine re-issues the killed process's in-flight
	// configuration; the client re-pays that one evaluation and no other.
	paid += drive(t, c2, "victim", paper(tasks), -1)
	total := epsTot * len(tasks)
	if paid != total {
		t.Fatalf("paid %d evaluations across the kill, want %d (only the in-flight evaluation may be re-paid)", paid, total)
	}

	got := history(t, c2, "victim")
	if len(got) != len(want) {
		t.Fatalf("resumed history has %d tasks, want %d", len(got), len(want))
	}
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: resumed history has %d evaluations, want %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			if math.Float64bits(got[ti].X[i][0]) != math.Float64bits(want[ti].X[i][0]) ||
				math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Fatalf("task %d sample %d: resumed history diverged from the uninterrupted run", ti, i)
			}
		}
	}
}
