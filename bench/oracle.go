package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The oracle is independent of the program under test: reference
// outputs come from the host's /bin/sh and coreutils under LC_ALL=C.
// Only when one of those tools is missing does the harness fall back to
// `pash -width 1`, and then every record says "reference": "self".

var oracleTools = []string{"sh", "cat", "tr", "grep", "cut", "sed", "sort", "uniq", "head", "seq", "wc"}

func hostOracleAvailable() bool {
	for _, t := range oracleTools {
		if _, err := exec.LookPath(t); err != nil {
			return false
		}
	}
	return true
}

// refOutput identifies a leg's expected output by length and hash.
type refOutput struct {
	sum [sha256.Size]byte
	n   int64
}

// digest accumulates an output stream into a refOutput.
type digest struct {
	h hash.Hash
	n int64
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digest) output() refOutput {
	r := refOutput{n: d.n}
	copy(r.sum[:], d.h.Sum(nil))
	return r
}

// referenceRunner runs one script over one input and writes the
// expected output to out.
type referenceRunner func(ctx context.Context, script string, stdin io.Reader, out io.Writer) error

func hostRunner(dir string) referenceRunner {
	return func(ctx context.Context, script string, stdin io.Reader, out io.Writer) error {
		cmd := exec.CommandContext(ctx, "sh", "-c", script)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "LC_ALL=C")
		cmd.Stdin = stdin
		cmd.Stdout = out
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench: oracle sh -c %q: %v: %s", script, err, stderr.Bytes())
		}
		return nil
	}
}

func selfRunner(pashBin, dir string) referenceRunner {
	return func(ctx context.Context, script string, stdin io.Reader, out io.Writer) error {
		cmd := exec.CommandContext(ctx, pashBin, "-width", "1", "-c", script)
		cmd.Dir = dir
		cmd.Stdin = stdin
		cmd.Stdout = out
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench: self reference %q: %v", script, err)
		}
		return nil
	}
}

// reference computes a leg's expected output. A cumulative stream leg
// emits its running value after every window, so its reference is the
// script over each window-aligned prefix of the body, concatenated; the
// last of those is the batch output over the whole body.
func reference(ctx context.Context, run referenceRunner, dir string, k kind, l leg) (refOutput, error) {
	d := newDigest()
	if k == kindStream && l.name == "cumulative" {
		body, err := readInput(dir, l.stdin)
		if err != nil {
			return refOutput{}, err
		}
		for _, end := range windowOffsets(body) {
			if err := run(ctx, l.script, bytes.NewReader(body[:end]), d); err != nil {
				return refOutput{}, err
			}
		}
		return d.output(), nil
	}
	var stdin io.Reader
	if l.stdin != "" {
		f, err := os.Open(filepath.Join(dir, l.stdin))
		if err != nil {
			return refOutput{}, err
		}
		defer f.Close()
		stdin = f
	}
	if err := run(ctx, l.script, stdin, d); err != nil {
		return refOutput{}, err
	}
	return d.output(), nil
}
