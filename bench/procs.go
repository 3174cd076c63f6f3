package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Everything the harness leaves on disk lives in two ignored
// directories of the checkout: buildDir (binaries and per-set-up
// scratch directories) and outDir (result.json, trace.json).
const (
	buildDirName = ".bench_build"
	outDirName   = "bench/out"
)

// repoRoot walks up from the working directory to the module the
// benchmark measures (the directory holding cmd/pash).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "pash", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no cmd/pash above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles the two programs under test from source. A
// warm build cache makes this a relink check, so every set-up pays it.
func buildBinaries(ctx context.Context, root string) (pashBin, serveBin string, err error) {
	bin := filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/pash", "./cmd/pash-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("bench: go build: %v\n%s", err, out)
	}
	return filepath.Join(bin, "pash"), filepath.Join(bin, "pash-serve"), nil
}

// scratchDir makes a fresh directory for one set-up's inputs and sockets.
func scratchDir(root string) (string, error) {
	base := filepath.Join(root, buildDirName)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// daemon is one pash-serve process (coordinator or worker) the harness
// started and must stop.
type daemon struct {
	cmd  *exec.Cmd
	addr string // "unix:<path>" or "host:port", as dialled
	done chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon launches pash-serve in dir, learns the bound address from
// its "listening on" line and waits until /healthz answers. listen is
// "unix:<relative path>" or "127.0.0.1:0".
func startDaemon(ctx context.Context, bin, dir, listen string, args ...string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", listen}, args...)...)
	cmd.Dir = dir
	// A harness killed outright still takes its children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ = strings.Cut(a, " ")
				select {
				case addrc <- a:
				default:
				}
			}
			d.mu.Lock()
			if d.stderr.Len() < 64<<10 {
				d.stderr.WriteString(line + "\n")
			}
			d.mu.Unlock()
		}
		cmd.Wait()
	}()
	select {
	case a := <-addrc:
		if path, ok := strings.CutPrefix(listen, "unix:"); ok {
			// Dial by a path relative to our own working directory: a
			// deep checkout must not overflow sockaddr_un's 108 bytes.
			d.addr = "unix:" + relToCwd(filepath.Join(dir, path))
		} else {
			d.addr = a
		}
	case <-d.done:
		return nil, fmt.Errorf("bench: %s exited before listening:\n%s", filepath.Base(bin), d.log())
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("bench: %s did not report a listen address", filepath.Base(bin))
	}
	client := newClient(d.addr)
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://pash/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: %s at %s never became healthy: %v", filepath.Base(bin), d.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop asks for a graceful drain, then kills; it returns once the
// process has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func relToCwd(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}

// newClient returns an HTTP client whose every connection goes to addr
// and which keeps exactly one of them alive: one client is one
// load-generator connection.
func newClient(addr string) *http.Client {
	network, target := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, target = "unix", path
	}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, target)
		},
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// procCPU reads a live process's CPU time: the on-CPU nanoseconds of
// its threads from /proc/<pid>/task/*/schedstat, or where the kernel
// keeps no schedstat, user+system clock ticks from /proc/<pid>/stat
// (10 ms resolution).
func procCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid)
	if tasks, err := os.ReadDir(dir + "/task"); err == nil {
		var total time.Duration
		seen := false
		for _, t := range tasks {
			data, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
			if err != nil {
				continue
			}
			if f := strings.Fields(string(data)); len(f) > 0 {
				ns, _ := strconv.ParseInt(f[0], 10, 64)
				total += time.Duration(ns)
				seen = true
			}
		}
		if seen {
			return total
		}
	}
	data, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0
	}
	// utime and stime are the 12th and 13th fields after the
	// parenthesised command name.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const userHz = 100
	return time.Duration(ut+st) * time.Second / userHz
}

// procPeakRSSKB reads a live process's peak resident set (VmHWM).
func procPeakRSSKB(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
