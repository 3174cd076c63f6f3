// Package benchscripts holds the corpus correctness suite: every script
// of the paper's benchmark corpus (internal/paper) run through the
// interpreter sequentially and in parallel configurations, against
// itself, with and without fusion, and against a real POSIX shell. The
// directory has tests only; the corpus and its inputs live in
// internal/paper.
package benchscripts

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/runtime"
)

// prepared is a corpus benchmark with its input generated in dir.
type prepared struct {
	dir    string
	script string
	vars   map[string]string
}

// prepare generates b's input at scale 1 in a fresh temporary directory.
func prepare(t *testing.T, b paper.Bench) *prepared {
	t.Helper()
	dir := t.TempDir()
	script, err := b.Setup(dir, 1)
	if err != nil {
		t.Fatalf("setup %s: %v", b.Name, err)
	}
	p := &prepared{dir: dir, script: script}
	if b.Vars != nil {
		p.vars = b.Vars(dir)
	}
	return p
}

// result is one execution of a prepared benchmark.
type result struct {
	output []byte
	code   int
}

// execute runs the prepared script under opts with empty stdin.
func (p *prepared) execute(opts core.Options) (*result, error) {
	var out bytes.Buffer
	code, err := core.Run(context.Background(), core.NewCompiler(opts), p.script, p.dir, p.vars, runtime.StdIO{
		Stdin:  strings.NewReader(""),
		Stdout: &out,
	})
	if err != nil {
		return nil, err
	}
	return &result{output: out.Bytes(), code: code}, nil
}

// TestOneLinersCorrectness runs every Tab. 2 benchmark sequentially and
// in several parallel configurations, asserting byte-identical output —
// the paper's §6 correctness claim, on the whole corpus.
func TestOneLinersCorrectness(t *testing.T) {
	for _, b := range paper.OneLiners() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := prepare(t, b)
			seq, err := p.execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.output) == 0 {
				t.Fatalf("%s: sequential output empty — benchmark is degenerate", b.Name)
			}
			for _, opts := range []core.Options{
				{Width: 2, Preset: core.Parallel},
				{Width: 4, Preset: core.ParSplit},
				{Width: 4, Preset: core.SplitNoEager},
				{Width: 8, Preset: core.ParBSplit},
			} {
				par, err := p.execute(opts)
				if err != nil {
					t.Fatalf("width %d: %v", opts.Width, err)
				}
				if !bytes.Equal(par.output, seq.output) {
					t.Errorf("width %d (%+v): output diverged from sequential", opts.Width, opts)
				}
			}
		})
	}
}

// TestUnix50Correctness does the same for the 34 Unix50 pipelines.
func TestUnix50Correctness(t *testing.T) {
	for _, b := range paper.Unix50() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := prepare(t, b)
			seq, err := p.execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := p.execute(core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(par.output, seq.output) {
				t.Errorf("parallel output diverged from sequential")
			}
		})
	}
}

func TestUseCases(t *testing.T) {
	for _, b := range []paper.Bench{paper.NOAA(), paper.WebIndex()} {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := prepare(t, b)
			seq, err := p.execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.output) == 0 {
				t.Fatal("empty output")
			}
			par, err := p.execute(core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(par.output, seq.output) {
				t.Errorf("parallel output diverged:\nseq: %.300s\npar: %.300s", seq.output, par.output)
			}
		})
	}
}
