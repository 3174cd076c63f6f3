package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// side selects which of the two measured configurations a pass runs:
// the parallel width W or the single-threaded baseline.
type side int

const (
	sidePar side = iota
	sideSeq
)

// tenants are the identities serve requests rotate through.
var tenants = []string{"t0", "t1", "t2", "t3"}

// opSample is one client-visible operation: a pash process from start
// to last stdout byte, or an HTTP request from send to trailer.
type opSample struct {
	leg  string
	wall time.Duration
	ok   bool
	// first is when the first response byte arrived (HTTP operations).
	start, first time.Time
}

// passSample is one pass: every leg once (CLI, stream) or passRequests
// requests on each of W connections (serve).
type passSample struct {
	wall      time.Duration
	cpu       time.Duration // user+sys of the processes under test
	rows      int64         // input rows consumed
	peakRSSKB int64         // largest resident set among those processes
	ops       []opSample
}

func (p passSample) failed() int {
	n := 0
	for _, o := range p.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// instance is one completed set-up of a workload: inputs on disk,
// reference outputs known, daemons up and warm.
type instance struct {
	spec      *spec
	width     int
	dir       string
	pashBin   string
	serveBin  string
	legs      []leg
	reference string // "host" or "self"
	oracle    referenceRunner

	workers []*daemon // dist-2w
	parD    *daemon   // serve/stream: the -width W daemon
	seqD    *daemon   // serve/stream: the -width 1 daemon
	clients map[side][]*http.Client
}

// setUp does everything a run needs before it can measure: build the
// binaries, generate inputs from the seed, compute reference outputs,
// start daemons and workers, and run one warm-up pass of each side. Its
// duration is the setup_s metric.
func setUp(ctx context.Context, cfg config, s *spec) (in *instance, err error) {
	in = &instance{spec: s, width: cfg.width, clients: map[side][]*http.Client{}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.pashBin, in.serveBin, err = buildBinaries(ctx, cfg.root); err != nil {
		return nil, err
	}
	if in.dir, err = scratchDir(cfg.root); err != nil {
		return nil, err
	}
	if in.legs, err = s.inputs(newCorpus(cfg.seed), in.dir, cfg.quick); err != nil {
		return nil, err
	}

	in.oracle, in.reference = hostRunner(in.dir), "host"
	if !hostOracleAvailable() {
		in.oracle, in.reference = selfRunner(in.pashBin, in.dir), "self"
	}
	for i := range in.legs {
		l := &in.legs[i]
		if l.ref, err = reference(ctx, in.oracle, in.dir, s.kind, *l); err != nil {
			return nil, err
		}
		l.batchRef = l.ref
		if s.kind == kindStream {
			if l.batchRef, err = reference(ctx, in.oracle, in.dir, kindCLI, *l); err != nil {
				return nil, err
			}
		}
		if s.kind != kindCLI {
			if l.payload, err = readInput(in.dir, l.stdin); err != nil {
				return nil, err
			}
		}
	}

	for i := 0; i < s.workers; i++ {
		w, err := startDaemon(ctx, in.serveBin, in.dir, "127.0.0.1:0", "-worker", "-dir", ".")
		if err != nil {
			return nil, err
		}
		in.workers = append(in.workers, w)
	}
	if s.kind != kindCLI {
		// The tenant meter is on, with limits no request reaches: a
		// shed of any cause is a failed operation.
		args := []string{"-dir", ".", "-tenant-quota", "1000000000", "-tenant-rate", "1000000", "-tenant-burst", "1000000"}
		if in.parD, err = startDaemon(ctx, in.serveBin, in.dir, "unix:par.sock", append(args, "-width", strconv.Itoa(cfg.width))...); err != nil {
			return nil, err
		}
		if in.seqD, err = startDaemon(ctx, in.serveBin, in.dir, "unix:seq.sock", append(args, "-width", "1")...); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.width; i++ {
			in.clients[sidePar] = append(in.clients[sidePar], newClient(in.parD.addr))
			in.clients[sideSeq] = append(in.clients[sideSeq], newClient(in.seqD.addr))
		}
	}

	for _, sd := range []side{sidePar, sideSeq} {
		p, err := in.pass(ctx, sd, nil)
		if err != nil {
			return nil, err
		}
		if n := p.failed(); n > 0 {
			return nil, fmt.Errorf("bench: %s: %d of %d warm-up operations failed (output differs from the %s reference, or non-zero status)", s.name, n, len(p.ops), in.reference)
		}
	}
	return in, nil
}

// close stops every process the set-up started, waits for each, and
// removes the scratch directory.
func (in *instance) close() {
	for _, cs := range in.clients {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}
	for _, d := range append([]*daemon{in.parD, in.seqD}, in.workers...) {
		if d != nil {
			d.stop()
		}
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// pass runs one pass of the given side. A non-nil tracer receives the
// client-side spans of every HTTP operation.
func (in *instance) pass(ctx context.Context, sd side, tr *tracer) (passSample, error) {
	switch in.spec.kind {
	case kindServe:
		return in.servePass(ctx, sd, tr)
	case kindStream:
		return in.streamPass(ctx, sd, tr)
	}
	return in.cliPass(ctx, sd)
}

// cliPass runs each leg through a fresh pash process. The baseline side
// is plain `pash -width 1`, with no workers.
func (in *instance) cliPass(ctx context.Context, sd side) (passSample, error) {
	var p passSample
	workerCPU := func() (total time.Duration) {
		for _, w := range in.workers {
			total += procCPU(w.pid())
		}
		return total
	}
	before := workerCPU()
	for _, l := range in.legs {
		args := []string{"-width", "1"}
		if sd == sidePar {
			args = []string{"-width", strconv.Itoa(in.width)}
			if len(in.workers) > 0 {
				var addrs []string
				for _, w := range in.workers {
					addrs = append(addrs, "http://"+w.addr)
				}
				args = append(args, "-workers", strings.Join(addrs, ","))
				args = append(args, l.flags...)
			}
		}
		op, state, err := in.runPash(ctx, l, args)
		if err != nil {
			return p, err
		}
		p.ops = append(p.ops, op)
		p.wall += op.wall
		p.cpu += state.UserTime() + state.SystemTime()
		if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
			p.peakRSSKB = max(p.peakRSSKB, int64(ru.Maxrss))
		}
		p.rows += l.rows
	}
	if sd == sidePar {
		p.cpu += workerCPU() - before
		for _, w := range in.workers {
			p.peakRSSKB = max(p.peakRSSKB, procPeakRSSKB(w.pid()))
		}
	}
	return p, nil
}

// runPash is one CLI operation: a pash process from start to its last
// stdout byte, its output checked against the leg's reference.
func (in *instance) runPash(ctx context.Context, l leg, args []string) (opSample, *os.ProcessState, error) {
	cmd := exec.CommandContext(ctx, in.pashBin, append(args, "-c", l.script)...)
	cmd.Dir = in.dir
	if l.stdin != "" {
		f, err := os.Open(filepath.Join(in.dir, l.stdin))
		if err != nil {
			return opSample{}, nil, err
		}
		defer f.Close()
		// Hide the *os.File so the child reads a pipe, not a seekable
		// file: that is what separates this leg from `cat file |`.
		cmd.Stdin = struct{ io.Reader }{f}
	}
	out := newDigest()
	cmd.Stdout = out
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if ctx.Err() != nil {
		return opSample{}, nil, ctx.Err()
	}
	if cmd.ProcessState == nil {
		return opSample{}, nil, fmt.Errorf("bench: start pash: %w", err)
	}
	return opSample{leg: l.name, wall: wall, ok: err == nil && out.output() == l.ref}, cmd.ProcessState, nil
}

func (in *instance) daemonFor(sd side) *daemon {
	if sd == sideSeq {
		return in.seqD
	}
	return in.parD
}

// servePass is a closed loop: each of W connections sends its next
// request only when the previous reply is complete, passRequests times,
// rotating request class and tenant.
func (in *instance) servePass(ctx context.Context, sd side, tr *tracer) (passSample, error) {
	d := in.daemonFor(sd)
	clients := in.clients[sd]
	perConn := make([][]opSample, len(clients))
	cpu0 := procCPU(d.pid())
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < in.spec.passRequests && ctx.Err() == nil; i++ {
				// Offset each connection so the classes interleave.
				l := in.legs[(i+c)%len(in.legs)]
				target := "http://pash/run?script=" + url.QueryEscape(l.script)
				op := post(ctx, clients[c], target, tenants[(i+c)%len(tenants)], l.payload, l)
				perConn[c] = append(perConn[c], op)
			}
		}()
	}
	wg.Wait()
	p := passSample{wall: time.Since(start), cpu: procCPU(d.pid()) - cpu0, peakRSSKB: procPeakRSSKB(d.pid())}
	if ctx.Err() != nil {
		return p, ctx.Err()
	}
	rowsOf := map[string]int64{}
	for _, l := range in.legs {
		rowsOf[l.name] = l.rows
	}
	for _, ops := range perConn {
		for _, op := range ops {
			p.ops = append(p.ops, op)
			p.rows += rowsOf[op.leg]
			tr.request(in.spec.name, op)
		}
	}
	return p, nil
}

// streamPass sends each leg's body through POST /stream on one
// connection and reads emissions until the trailer.
func (in *instance) streamPass(ctx context.Context, sd side, tr *tracer) (passSample, error) {
	d := in.daemonFor(sd)
	var p passSample
	cpu0 := procCPU(d.pid())
	for _, l := range in.legs {
		target := fmt.Sprintf("http://pash/stream?script=%s&window-bytes=%d&window=1h", url.QueryEscape(l.script), streamWindowBytes)
		op := post(ctx, in.clients[sd][0], target, tenants[0], l.payload, l)
		if ctx.Err() != nil {
			return p, ctx.Err()
		}
		p.ops = append(p.ops, op)
		tr.request(in.spec.name, op)
		p.wall += op.wall
		p.rows += l.rows
	}
	p.cpu = procCPU(d.pid()) - cpu0
	p.peakRSSKB = procPeakRSSKB(d.pid())
	return p, nil
}

// post sends one request and reads the reply to its trailer. The
// operation is good only if the status is 200, the exit-code trailer is
// 0 and the body matches the leg's reference.
func post(ctx context.Context, c *http.Client, target, tenant string, body []byte, l leg) opSample {
	op := opSample{leg: l.name, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		op.wall = time.Since(op.start)
		return op
	}
	req.Header.Set("X-Pash-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		op.wall = time.Since(op.start)
		return op
	}
	op.first = time.Now()
	out := newDigest()
	_, err = io.Copy(out, resp.Body)
	resp.Body.Close()
	op.wall = time.Since(op.start)
	op.ok = err == nil && resp.StatusCode == http.StatusOK &&
		resp.Trailer.Get("X-Pash-Exit-Code") == "0" && out.output() == l.ref
	return op
}
