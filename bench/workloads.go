package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The scripts. Each is plain POSIX shell that /bin/sh runs unchanged:
// the oracle in oracle.go depends on that.
const (
	statelessScript  = `tr A-Z a-z | grep water | cut -d ' ' -f1-3 | sed 's/water/WATER/'`
	sortScript       = `cat sort.txt | tr A-Z a-z | sort`
	wfScript         = `cat wf.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`
	hitBody          = `cut -d ' ' -f1 s.txt | grep -c o`
	missBody         = `cut -d ' ' -f1 s.txt | grep "w$i" | wc -l`
	tinyScript       = `seq 1 200 | wc -l`
	fileScript       = `cut -d ' ' -f1 small.txt | sort | uniq -c | sort -rn | head -n 5`
	bodyScript       = `tr A-Z a-z | grep water | cut -d ' ' -f1-3 | sort | uniq -c | sort -rn | head -n 20`
	cumulativeScript = `tr A-Z a-z | grep water | cut -d ' ' -f1 | sort -u`
	deltaScript      = `tr A-Z a-z | grep water | cut -d ' ' -f1-3`
)

// streamWindowBytes is the size trigger of every /stream request; with
// window=1h it is the only trigger, so window boundaries depend on the
// input bytes alone.
const streamWindowBytes = 1 << 20

type kind int

const (
	kindCLI    kind = iota // legs are `pash` subprocesses
	kindServe              // legs are request classes against pash-serve /run
	kindStream             // legs are POST /stream requests
)

// leg is one script of a workload together with the input it consumes.
type leg struct {
	name   string
	script string   // what the program under test is handed
	stdin  string   // file piped to stdin / sent as the request body ("" = none)
	rows   int64    // input rows one run of the leg consumes
	flags  []string // extra pash flags (dist-2w's -shared-fs)
	// payload is the stdin file's content, held by serve and stream
	// legs, which send it as the request body.
	payload []byte

	// The traced run decomposes a leg in-process: body is the pipeline,
	// run loop times with $i bound to 1..loop (0 = once, no binding).
	body string
	loop int

	// ref is what a client of the leg must receive. batchRef is what one
	// batch run of the script over the whole input prints; they differ
	// only for a cumulative stream leg, whose ref repeats the running
	// value once per window.
	ref, batchRef refOutput
}

// spec names one workload, why it exists, and how to lay down its inputs.
type spec struct {
	name    string
	why     string
	kind    kind
	workers int // pash-serve -worker processes (dist-2w)
	// passRequests is the number of requests each connection sends in
	// one pass of a serve workload.
	passRequests int
	inputs       func(c *corpus, dir string, quick bool) ([]leg, error)
}

// scaled shrinks a size for -quick runs, which check plumbing, not speed.
func scaled(n int, quick bool) int {
	if quick {
		return max(n/50, 20)
	}
	return n
}

func forLoop(iters int, body string) string {
	return fmt.Sprintf("for i in $(seq 1 %d); do %s; done", iters, body)
}

var specs = []spec{
	{
		name: "batch-stateless",
		why:  "four stateless kernels over 64 MB, from a seekable file (file split) and from a pipe (round-robin split + merge): kernels and the data plane do the work, planning none",
		kind: kindCLI,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			lines := scaled(2_000_000, quick)
			if err := c.writeFile(filepath.Join(dir, "in.txt"), lines); err != nil {
				return nil, err
			}
			file := "cat in.txt | " + statelessScript
			return []leg{
				{name: "file", script: file, rows: int64(lines), body: file},
				{name: "stdin", script: statelessScript, stdin: "in.txt", rows: int64(lines), body: statelessScript},
			}, nil
		},
	},
	{
		name: "batch-sort",
		why:  "sort and the word-frequency one-liner: pure commands behind a barrier split and the aggregation tree, where kernels do little and peak memory lives",
		kind: kindCLI,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			sortLines, wfLines := scaled(150_000, quick), scaled(30_000, quick)
			if err := c.writeFile(filepath.Join(dir, "sort.txt"), sortLines); err != nil {
				return nil, err
			}
			if err := c.writeFile(filepath.Join(dir, "wf.txt"), wfLines); err != nil {
				return nil, err
			}
			return []leg{
				{name: "sort", script: sortScript, rows: int64(sortLines), body: sortScript},
				{name: "wf", script: wfScript, rows: int64(wfLines), body: wfScript},
			}, nil
		},
	},
	{
		name: "loop-control",
		why:  "hundreds of sub-millisecond regions over a 200-line file: parse, expand, plan (hit loop cached, miss loop new argv each time), clone and goroutine start-up dominate; few bytes move",
		kind: kindCLI,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			const fileLines = 200
			iters := scaled(400, quick)
			if err := c.writeFile(filepath.Join(dir, "s.txt"), fileLines); err != nil {
				return nil, err
			}
			rows := int64(iters * fileLines)
			return []leg{
				{name: "hit", script: forLoop(iters, hitBody), rows: rows, body: hitBody, loop: iters},
				{name: "miss", script: forLoop(iters, missBody), rows: rows, body: missBody, loop: iters},
			}, nil
		},
	},
	{
		name:         "serve-mixed",
		why:          "closed loop of W keep-alive connections on a unix socket, 4 tenants, tiny/file/body requests 1:1:1: the only workload crossing HTTP, tenant metering, admission and the cross-client plan cache",
		kind:         kindServe,
		passRequests: 150,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			const smallLines, bodyLines = 2000, 8000 // body ≈ 256 KB
			if err := c.writeFile(filepath.Join(dir, "small.txt"), smallLines); err != nil {
				return nil, err
			}
			if err := c.writeFile(filepath.Join(dir, "body.txt"), bodyLines); err != nil {
				return nil, err
			}
			return []leg{
				{name: "tiny", script: tinyScript, rows: 200, body: tinyScript},
				{name: "file", script: fileScript, rows: smallLines, body: fileScript},
				{name: "body", script: bodyScript, stdin: "body.txt", rows: bodyLines, body: bodyScript},
			}, nil
		},
	},
	{
		name: "stream-agg",
		why:  "POST /stream with a 1 MiB size trigger, a cumulative (sort -u fold) and a delta script: one plan-cache hit, one region and one Combine per window, so per-window fixed cost sets the rate",
		kind: kindStream,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			lines := 250_000
			if quick {
				lines = 70_000 // still more than two windows
			}
			if err := c.writeFile(filepath.Join(dir, "stream.txt"), lines); err != nil {
				return nil, err
			}
			return []leg{
				{name: "cumulative", script: cumulativeScript, stdin: "stream.txt", rows: int64(lines), body: cumulativeScript},
				{name: "delta", script: deltaScript, stdin: "stream.txt", rows: int64(lines), body: deltaScript},
			}, nil
		},
	},
	{
		name:    "dist-2w",
		why:     "two pash-serve -worker processes on loopback TCP, one leg per remote dispatch shape (framed, streamed, file range): the safety net for the internal/dist rewrite; cores are shared, so no scaling claim",
		kind:    kindCLI,
		workers: 2,
		inputs: func(c *corpus, dir string, quick bool) ([]leg, error) {
			lines, sortLines := scaled(500_000, quick), scaled(100_000, quick)
			if err := c.writeFile(filepath.Join(dir, "in.txt"), lines); err != nil {
				return nil, err
			}
			if err := c.writeFile(filepath.Join(dir, "sort.txt"), sortLines); err != nil {
				return nil, err
			}
			file := "cat in.txt | " + statelessScript
			return []leg{
				{name: "framed", script: file, rows: int64(lines), body: file},
				{name: "streamed", script: sortScript, rows: int64(sortLines), body: sortScript},
				{name: "filerange", script: file, rows: int64(lines), flags: []string{"-shared-fs"}, body: file},
			}, nil
		},
	},
}

func findSpec(name string) (*spec, error) {
	var names []string
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
		names = append(names, specs[i].name)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// windowOffsets returns the end offset of every window pash-serve cuts
// from body under a pure size trigger: the first line end at or past
// each streamWindowBytes, then whatever remains at end of input.
func windowOffsets(body []byte) []int {
	var ends []int
	start := 0
	for len(body)-start >= streamWindowBytes {
		i := start + streamWindowBytes - 1
		for body[i] != '\n' {
			i++
		}
		ends = append(ends, i+1)
		start = i + 1
	}
	if start < len(body) {
		ends = append(ends, len(body))
	}
	return ends
}

func readInput(dir, name string) ([]byte, error) {
	if name == "" {
		return nil, nil
	}
	return os.ReadFile(filepath.Join(dir, name))
}
