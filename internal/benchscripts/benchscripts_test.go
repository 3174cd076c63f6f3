package benchscripts

import (
	"testing"

	"repro/internal/core"
)

// TestOneLinersCorrectness runs every Tab. 2 benchmark sequentially and
// in several parallel configurations, asserting byte-identical output —
// the paper's §6 correctness claim, on the whole corpus.
func TestOneLinersCorrectness(t *testing.T) {
	for _, b := range OneLiners() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(b, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := p.Execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Output) == 0 {
				t.Fatalf("%s: sequential output empty — benchmark is degenerate", b.Name)
			}
			for _, opts := range []core.Options{
				{Width: 2, Preset: core.Parallel},
				{Width: 4, Preset: core.ParSplit},
				{Width: 4, Preset: core.SplitNoEager},
				{Width: 8, Preset: core.ParBSplit},
			} {
				par, err := p.Execute(opts)
				if err != nil {
					t.Fatalf("width %d: %v", opts.Width, err)
				}
				if par.Hash != seq.Hash {
					t.Errorf("width %d (%+v): output diverged from sequential", opts.Width, opts)
				}
			}
		})
	}
}

// TestUnix50Correctness does the same for the 34 Unix50 pipelines.
func TestUnix50Correctness(t *testing.T) {
	for _, b := range Unix50() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(b, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := p.Execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := p.Execute(core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if par.Hash != seq.Hash {
				t.Errorf("parallel output diverged from sequential")
			}
		})
	}
}

func TestUseCases(t *testing.T) {
	for _, b := range []Bench{NOAA(), WebIndex()} {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(b, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := p.Execute(core.Options{Width: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Output) == 0 {
				t.Fatal("empty output")
			}
			par, err := p.Execute(core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if par.Hash != seq.Hash {
				t.Errorf("parallel output diverged:\nseq: %.300s\npar: %.300s", seq.Output, par.Output)
			}
		})
	}
}

func TestCompileStats(t *testing.T) {
	b, ok := FindOneLiner("top-n")
	if !ok {
		t.Fatal("top-n missing")
	}
	p, err := Prepare(b, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes16, d16, err := p.CompileStats(core.DefaultOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	nodes2, _, err := p.CompileStats(core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if nodes16 <= nodes2 {
		t.Errorf("node count must grow with width: %d (w16) vs %d (w2)", nodes16, nodes2)
	}
	if d16 <= 0 {
		t.Error("compile time not measured")
	}
}
