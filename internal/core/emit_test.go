package core

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func planFor(t *testing.T, opts Options, src string) *Plan {
	t.Helper()
	c := NewCompiler(opts)
	p, err := c.Plan(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func emitted(t *testing.T, opts Options, src string) string {
	t.Helper()
	var b bytes.Buffer
	if err := planFor(t, opts, src).Emit(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPlanLiftsStaticRegions(t *testing.T) {
	p := planFor(t, DefaultOptions(4), "cat f.txt | grep x | sort")
	if len(p.Items) != 1 || p.Items[0].Graph == nil {
		t.Fatalf("static pipeline not lifted: %+v", p.Items)
	}
	if n := len(p.Items[0].Graph.Nodes); n < 10 {
		t.Errorf("region not parallelized: %d nodes", n)
	}
}

func TestPlanKeepsDynamicRegionsVerbatim(t *testing.T) {
	p := planFor(t, DefaultOptions(4), "grep $pattern f.txt")
	if len(p.Items) != 1 || p.Items[0].Graph != nil {
		t.Fatalf("dynamic region must stay verbatim: %+v", p.Items)
	}
	if !strings.Contains(p.Items[0].Verbatim, "$pattern") {
		t.Errorf("verbatim lost the variable: %q", p.Items[0].Verbatim)
	}
}

func TestPlanConstantPropagation(t *testing.T) {
	// A static assignment makes downstream uses static.
	p := planFor(t, DefaultOptions(4), "f=data.txt; grep x $f | sort")
	var graphs int
	for _, it := range p.Items {
		if it.Graph != nil {
			graphs++
		}
	}
	if graphs != 1 {
		t.Errorf("constant propagation failed: %d lifted regions", graphs)
	}
}

func TestPlanKeepsCompoundsVerbatim(t *testing.T) {
	p := planFor(t, DefaultOptions(4), "for i in 1 2; do echo $i; done")
	if len(p.Items) != 1 || p.Items[0].Graph != nil {
		t.Fatalf("compound should be verbatim: %+v", p.Items)
	}
}

func TestEmitStructure(t *testing.T) {
	out := emitted(t, DefaultOptions(2), "cat in.txt | grep -v x | sort | head -n 3")
	for _, frag := range []string{
		"#!/bin/sh",
		"mktemp -d",
		"mkfifo",
		"sort -m", // the sort aggregator
		"wait $pash_out",
		"kill -PIPE",
		"rm -rf",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("emitted script missing %q:\n%s", frag, out)
		}
	}
}

func TestEmitQuoting(t *testing.T) {
	out := emitted(t, Options{Width: 1}, `grep 'a b$c' f.txt`)
	if !strings.Contains(out, `'a b$c'`) {
		t.Errorf("special characters not quoted:\n%s", out)
	}
}

func TestEmitSplitUsesPrims(t *testing.T) {
	out := emitted(t, DefaultOptions(4), "grep x < big.txt | tr a-z A-Z")
	if !strings.Contains(out, `"$PASH_PRIMS" split`) {
		t.Errorf("split not routed through pash-prims:\n%s", out)
	}
	if !strings.Contains(out, `"$PASH_PRIMS" eager`) {
		t.Errorf("eager relays not emitted:\n%s", out)
	}
}

// TestEmittedScriptRunsUnderSh executes generated scripts with the
// system shell and real coreutils under every preset, checking output
// equivalence against the in-process width-1 run: whatever a preset
// plans in-process, emission gives it barrier splits and no fused nodes.
// Skipped when sh or the commands are unavailable.
func TestEmittedScriptRunsUnderSh(t *testing.T) {
	shPath, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("sh not available")
	}
	for _, cmd := range []string{"cat", "grep", "sort", "tr", "mkfifo", "head"} {
		if _, err := exec.LookPath(cmd); err != nil {
			t.Skipf("%s not available", cmd)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(corpus(300)), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build pash-prims into the temp dir.
	prims := filepath.Join(dir, "pash-prims")
	build := exec.Command("go", "build", "-o", prims, "repro/cmd/pash-prims")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build pash-prims: %v\n%s", err, out)
	}

	for _, script := range []string{
		// A split in front of the chain: round-robin (framed replicas to
		// an order-restoring merge) or file ranges in-process, the barrier
		// and a cat when emitted.
		"grep -v x in.txt | tr a-z A-Z",
		"grep -v x in.txt | tr a-z A-Z | sort | head -n 3",
		// Two inputs: every preset parallelizes behind the cat.
		"cat in.txt in.txt | grep -v o | sort -r | head -n 5",
	} {
		want := runScript(t, Options{Width: 1}, script, "", dir, nil)
		for p := ParSplit; p <= Planned; p++ {
			var gen bytes.Buffer
			if err := planFor(t, Options{Width: 3, Preset: p}, script).Emit(&gen); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(gen.String(), "pash-rr-merge") {
				// No process can reassemble round-robin blocks: the script
				// would wait on its FIFOs forever.
				t.Errorf("%s: %q: emitted a round-robin merge:\n%s", p, script, gen.String())
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, "gen.sh"), gen.Bytes(), 0o755); err != nil {
				t.Fatal(err)
			}
			sh := exec.Command(shPath, "gen.sh")
			sh.Dir = dir
			sh.Env = append(os.Environ(), "PASH_PRIMS="+prims, "LC_ALL=C")
			out, err := sh.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: generated script failed: %v\n%s\nscript:\n%s", p, err, out, gen.String())
			}
			if string(out) != want {
				t.Errorf("%s: %q: generated script output = %q, want %q", p, script, out, want)
			}
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}
