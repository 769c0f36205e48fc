package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/span"
)

// env is everything one run of one workload needs besides its own sizes:
// where the module, the built child binaries, the per-run scratch directory
// and the output directory are, the seed and time budget, and the span
// recorder (nil unless this is the traced run).
type env struct {
	ctx     context.Context // cancelled on SIGINT/SIGTERM: drives stop, children are torn down
	root    string          // module root: the directory holding go.mod
	bin     string          // built child binaries
	work    string          // per-run scratch (data dirs, WALs); removed on close
	out     string          // trace files, child stderr, ledgers (git-ignored)
	nproc   int
	seed    int64
	seconds float64
	smoke   bool
	rec     *span.Recorder
	probe   *cpuProbe // how fast the CPU is while the workload runs; see probe.go
	log     io.Writer
}

// childGOMAXPROCS is what every gptuned and gptune-router child runs at:
// the box has nproc cores for the generator plus three server processes, so
// each server gets one scheduler thread and the kernel arbitrates.
const childGOMAXPROCS = 1

// moduleRoot walks up from the working directory to the go.mod of module
// repro, so the benchmark runs both from the repository root (go run) and
// from its own directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module repro")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// newEnv prepares the directories of one run. buildDir overrides where
// binaries and scratch go (tests pass a temp dir); empty means
// <root>/.bench_build.
func newEnv(ctx context.Context, buildDir string, seed int64, seconds float64, smoke bool, traced bool, log io.Writer) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	e := &env{
		ctx:  ctx,
		root: root, bin: filepath.Join(buildDir, "bin"),
		out:   filepath.Join(root, "benchmark", "out"),
		nproc: runtime.NumCPU(), seed: seed, seconds: seconds, smoke: smoke, log: log,
		probe: &cpuProbe{},
	}
	for _, d := range []string{e.bin, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.work, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	if traced {
		e.rec = span.New()
	}
	return e, nil
}

func (e *env) close() { _ = os.RemoveAll(e.work) }

// untraced is e with tracing off, for drives whose spans are not the
// workload's: warm-up studies and the wire measurements.
func (e *env) untraced() *env {
	q := *e
	q.rec = nil
	return &q
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// buildChildren compiles the real gptuned and gptune-router binaries the
// service workloads and the traced run's wire measurements run against,
// once per run and before any set-up is timed: with a warm build cache it
// is the go tool's up-to-date check, a quarter of a second that reads 20 %
// apart from one minute to the next on a shared box.
func (e *env) buildChildren() error {
	for _, name := range []string{"gptuned", "gptune-router"} {
		cmd := exec.Command("go", "build", "-buildvcs=false", "-o", filepath.Join(e.bin, name), "./cmd/"+name)
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %w\n%s", name, err, out)
		}
	}
	return nil
}

// timedSetups runs setup reps times, tearing each instance down again
// except the last, and returns the last instance with every set-up as a
// phase: setup_s is the median of their corrected durations, so one slow
// spawn does not decide it.
func timedSetups[T any](e *env, reps int, setup func() (T, error), teardown func(T) error) (T, []phase, error) {
	var keep T
	phases := make([]phase, 0, reps)
	for i := 0; i < reps; i++ {
		from, t0 := e.probe.mark(), time.Now()
		inst, err := setup()
		if err != nil {
			return keep, nil, err
		}
		phases = append(phases, phase{seconds: time.Since(t0).Seconds(), from: from, to: e.probe.mark(), cpuShare: 1})
		if i < reps-1 {
			if err := teardown(inst); err != nil {
				return keep, nil, err
			}
			continue
		}
		keep = inst
	}
	return keep, phases, nil
}

// resetPeakRSS returns freed heap to the OS and asks the kernel to restart
// this process's peak-RSS watermark, so every unit of a library workload
// reports its own peak (about a millisecond per call). Where the kernel
// refuses, the watermark simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB from its
// /proc status file.
func peakRSSMB(statusPath string) (float64, bool) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil && kb > 0 {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

// selfPeakRSSMB is this process's peak resident set in MiB since the last
// resetPeakRSS, falling back to getrusage's lifetime maximum.
func selfPeakRSSMB() float64 {
	if mb, ok := peakRSSMB("/proc/self/status"); ok {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// selfCPUSeconds is the user + system CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// environment is recorded in every result file so a number is never read
// without the machine that produced it.
type environment struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs_generator"`
	ChildGOMAXPROCS int    `json:"gomaxprocs_each_child"`
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	Kernel          string `json:"kernel"`
	Disk            string `json:"disk_of_scratch_dir"`
	GitCommit       string `json:"git_commit"`
}

func captureEnvironment(root, scratch string) environment {
	return environment{
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: childGOMAXPROCS,
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		Kernel:          readTrim("/proc/sys/kernel/osrelease"),
		Disk:            mountOf(scratch),
		GitCommit:       gitCommit(root),
	}
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// mountOf names the device and filesystem type of the longest mount point
// that prefixes dir, from /proc/mounts.
func mountOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = f[0]+" "+f[2]+" at "+mp, len(mp)
		}
	}
	return best
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
