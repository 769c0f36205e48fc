package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/gptune/client"
)

// child is one server process the benchmark started.
type child struct {
	name   string
	url    string
	cmd    *exec.Cmd
	stderr *os.File
}

// cluster is the service topology every serve workload runs against:
// client → gptune-router → N × gptuned, each a real child process at
// GOMAXPROCS=1 with its own data directory on the benchmark's disk.
type cluster struct {
	replicas []*child
	router   *child
	dataDirs []string
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (e *env) spawn(name, tag string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.out, fmt.Sprintf("%s-%s.stderr", tag, filepath.Base(e.work)))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, name), append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return &child{name: tag, url: "http://" + addr, cmd: cmd, stderr: logFile}, nil
}

// waitHealthy polls url until it answers 200 and, when wantBody is set,
// its body contains it.
func waitHealthy(url, wantBody string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url)
		if err == nil {
			buf := make([]byte, 4096)
			n, _ := resp.Body.Read(buf)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(buf[:n]), wantBody) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", url)
}

// startCluster spawns the replicas, waits for each, then the router, and
// waits until the router sees every replica healthy. On any failure what
// was started is killed again.
func (e *env) startCluster(replicas int) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.kill()
		}
	}()
	var urls []string
	for i := 0; i < replicas; i++ {
		dir, derr := os.MkdirTemp(e.work, fmt.Sprintf("replica%d-", i))
		if derr != nil {
			return c, derr
		}
		ch, serr := e.spawn("gptuned", fmt.Sprintf("gptuned%d", i), "-data", dir)
		if serr != nil {
			return c, serr
		}
		c.replicas = append(c.replicas, ch)
		c.dataDirs = append(c.dataDirs, dir)
		urls = append(urls, ch.url)
	}
	for _, ch := range c.replicas {
		if err = waitHealthy(ch.url+"/healthz", `"ok"`); err != nil {
			return c, err
		}
	}
	if c.router, err = e.spawn("gptune-router", "router", "-replicas", strings.Join(urls, ","), "-probe", "200ms"); err != nil {
		return c, err
	}
	err = waitHealthy(c.router.url+"/healthz", fmt.Sprintf(`"healthy":%d`, replicas))
	return c, err
}

func (c *cluster) replicaURLs() []string {
	urls := make([]string, len(c.replicas))
	for i, ch := range c.replicas {
		urls[i] = ch.url
	}
	return urls
}

func (c *cluster) children() []*child {
	all := append([]*child(nil), c.replicas...)
	if c.router != nil {
		all = append([]*child{c.router}, all...)
	}
	return all
}

// drain asks every child to shut down gracefully (router first, so nothing
// is routed at a closing replica), waits for each, and requires a clean
// exit. It returns the children's summed CPU seconds (user + system, over
// their whole life) and peak resident sets in MiB. A child that ignores
// SIGTERM for ten seconds is killed and reported.
func (c *cluster) drain() (cpuS, rssMB float64, err error) {
	var problems []string
	for _, ch := range c.children() {
		// Peak RSS is read from the live child: the ru_maxrss a parent gets
		// back from wait starts at the parent's own resident set at fork
		// time, so a generator with a large heap would inflate it.
		peakMB, havePeak := peakRSSMB(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
		if serr := ch.cmd.Process.Signal(syscall.SIGTERM); serr != nil {
			problems = append(problems, fmt.Sprintf("%s: signal: %v", ch.name, serr))
		}
		timer := time.AfterFunc(10*time.Second, func() { _ = ch.cmd.Process.Kill() })
		werr := ch.cmd.Wait()
		timer.Stop()
		ch.stderr.Close()
		if werr != nil {
			tail, _ := os.ReadFile(ch.stderr.Name())
			if len(tail) > 2000 {
				tail = tail[len(tail)-2000:]
			}
			problems = append(problems, fmt.Sprintf("%s did not exit cleanly: %v\n%s", ch.name, werr, tail))
		}
		if st, serr := os.Stat(ch.stderr.Name()); werr == nil && serr == nil && st.Size() == 0 {
			_ = os.Remove(ch.stderr.Name()) // nothing was said: keep benchmark/out readable
		}
		if ru, ok := ch.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !havePeak {
			peakMB = float64(ru.Maxrss) / 1024
		}
		rssMB += peakMB
		cpuS += (ch.cmd.ProcessState.UserTime() + ch.cmd.ProcessState.SystemTime()).Seconds()
	}
	if len(problems) > 0 {
		return cpuS, rssMB, errors.New(strings.Join(problems, "; "))
	}
	return cpuS, rssMB, nil
}

// kill tears the cluster down without ceremony (set-up failed, or the run
// is being abandoned on an error).
func (c *cluster) kill() {
	for _, ch := range c.children() {
		_ = ch.cmd.Process.Kill()
		_ = ch.cmd.Wait()
		ch.stderr.Close()
	}
}

// newClient builds the generator's client: through the given base URLs,
// over at most conns keep-alive connections per host.
func (e *env) newClient(retries, conns int, bases ...string) (*client.Client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return client.New(client.Config{
		Replicas:   bases,
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: retries,
		JitterSeed: e.seed,
	})
}

// served is a running topology and the generator's client to it.
type served struct {
	*cluster
	c *client.Client
}

// setupService is the service workloads' set-up: spawn the topology, wait
// until it is routable, and drive one serve_closed-shaped study through the
// router with the generator's own client. Set-up time is therefore the time
// to the first finished study, and the measured phase starts on open
// connections and servers that have fitted a model and written a WAL.
func setupService(e *env, retries, conns int) (*served, error) {
	cl, err := e.startCluster(2)
	if err != nil {
		return nil, err
	}
	c, err := e.newClient(retries, conns, cl.router.url)
	if err == nil {
		err = warmUpService(e, c)
	}
	if err != nil {
		cl.kill()
		return nil, err
	}
	return &served{cluster: cl, c: c}, nil
}

func warmUpService(e *env, c *client.Client) error {
	rs, err := closedStudy(e, "warmup", 0)
	if err != nil {
		return err
	}
	lg := &driveLog{}
	if _, err := driveRemote(e.untraced(), lg, c, rs, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return lg.asError("warm-up")
}

func (s *served) teardown() error {
	_, _, err := s.drain()
	return err
}
