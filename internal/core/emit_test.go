package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
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
// system shell, real coreutils and the pash-prims binary. Every script
// runs under a deadline, so one that deadlocks on its FIFOs fails the test
// instead of stalling the suite.
//   - Every aggregator the host can run, over an input of more than 8 MiB
//     with blank runs, at widths 2 and 4: each partition is at least 2 MiB,
//     far past what a pipe holds, so only eager relays that are eager keep
//     a split that writes its partitions in order from deadlocking.
//   - The heredoc forms and an unquoted glob at widths 1, 2 and 4.
//   - Both against the host running the script itself.
//   - A sweep of every preset against the in-process width-1 run: whatever
//     a preset plans in-process, emission gives it barrier splits and no
//     fused nodes.
//
// Skipped when sh or the commands are unavailable.
func TestEmittedScriptRunsUnderSh(t *testing.T) {
	shPath, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("sh not available")
	}
	for _, cmd := range []string{"cat", "grep", "sort", "tr", "mkfifo", "mktemp", "head", "tail", "uniq", "wc", "tac"} {
		if _, err := exec.LookPath(cmd); err != nil {
			t.Skipf("%s not available", cmd)
		}
	}
	dir := t.TempDir()
	globDir := filepath.Join(dir, "glob")
	for name, data := range map[string]string{
		"in.txt":        corpus(300) + "a water line\n",
		"big.txt":       blankRunCorpus(8<<20 + 1),
		"glob/one.txt":  "alpha\nbeta\n",
		"glob/two.txt":  "gamma\ndelta\n",
		"glob/three.md": "a markdown file\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Build pash-prims into the temp dir.
	prims := filepath.Join(dir, "pash-prims")
	build := exec.Command("go", "build", "-o", prims, "repro/cmd/pash-prims")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build pash-prims: %v\n%s", err, out)
	}
	env := append(os.Environ(), "PASH_PRIMS="+prims, "LC_ALL=C")
	// emitRun returns the generated script and what sh prints running it.
	emitRun := func(opts Options, script, dir string) (string, string) {
		t.Helper()
		var gen bytes.Buffer
		if err := planFor(t, opts, script).Emit(&gen); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(gen.String(), "pash-rr-merge") {
			// No process can reassemble round-robin blocks: the script
			// would wait on its FIFOs forever.
			t.Fatalf("%+v: %q: emitted a round-robin merge:\n%s", opts, script, gen.String())
		}
		return gen.String(), shRun(t, dir, env, shPath, "-c", gen.String())
	}

	for _, tc := range []struct {
		script string
		agg    string // the aggregator the emitted script must run
	}{
		{"cat big.txt | uniq", "agg-uniq"},
		{"cat big.txt | uniq -c", "agg-uniq -c"},
		{"cat big.txt | wc", "agg-wc"},
		{"cat big.txt | wc -l", "agg-wc"},
		{"cat big.txt | grep -c a", "agg-sum"},
		{"cat big.txt | sort", "sort -m"},
		{"cat big.txt | tac", "agg-tac"},
		{"cat big.txt | tr a-z A-Z | head -n 7", "agg-head"},
		{"cat big.txt | tail -n 7", "agg-tail"},
	} {
		want := shRun(t, dir, env, shPath, "-c", tc.script)
		for _, w := range []int{2, 4} {
			gen, got := emitRun(DefaultOptions(w), tc.script, dir)
			if !strings.Contains(gen, tc.agg) {
				t.Errorf("width %d: %q: emitted script does not run %s:\n%s", w, tc.script, tc.agg, gen)
			}
			if got != want {
				t.Errorf("width %d: %q: emitted script output differs from the host (%d vs %d bytes)", w, tc.script, len(got), len(want))
			}
		}
	}

	for _, tc := range []struct{ script, dir string }{
		{"pat=water\ntr A-Z a-z <<EOF | tr -cs a-z '\\n' | grep -v '^$' | sort\n" +
			"The Quick Brown Fox searches for $pat\na literal \\$pat stays a dollar sign\n" +
			"backslash-newline joins this \\\nline with the next\nEOF\n", dir},
		{"pat=water\ncat <<'EOF' | sort | uniq -c\nraw $pat is not expanded\nraw $pat is not expanded\n" +
			"neither is \\$this nor a backquote\nEOF\n", dir},
		{"grep water in.txt | tr A-Z a-z | sort > hits.tmp\nsort <<EOF > extra.tmp\nzebra water line\n" +
			"alpha water line\nEOF\nsort -m hits.tmp extra.tmp | uniq\n", dir},
		{"cat *.txt | grep a", globDir},
	} {
		want := shRun(t, tc.dir, env, shPath, "-c", tc.script)
		if want == "" {
			t.Fatalf("%q: the host prints nothing", tc.script)
		}
		for _, w := range []int{1, 2, 4} {
			if _, got := emitRun(DefaultOptions(w), tc.script, tc.dir); got != want {
				t.Errorf("width %d: %q: emitted script output = %q, want %q", w, tc.script, got, want)
			}
		}
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
			if _, got := emitRun(Options{Width: 3, Preset: p}, script, dir); got != want {
				t.Errorf("%s: %q: generated script output = %q, want %q", p, script, got, want)
			}
		}
	}
}

// shRun runs a command with a deadline and returns its stdout. A timeout,
// a failure or any stderr fails the test. The command leads a process
// group of its own, and a timeout kills the whole group, so no background
// job outlives it holding the output pipe open.
func shRun(t *testing.T, dir string, env []string, name string, args ...string) string {
	t.Helper()
	const deadline = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = env
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = time.Second
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	script := args[len(args)-1]
	if ctx.Err() != nil {
		t.Fatalf("no exit within %v (a deadlock?); script:\n%s", deadline, script)
	}
	if err != nil || stderr.Len() > 0 {
		t.Fatalf("%v\nstderr: %s\nscript:\n%s", err, stderr.String(), script)
	}
	return string(out)
}

// blankRunCorpus returns at least size bytes of lines of one to three
// words, with runs of one to four blank lines between about one line in
// seven, from a fixed seed.
func blankRunCorpus(size int) string {
	words := []string{"alpha", "beta", "gamma", "delta", "water", "stone", "wood", "fire", "Sky", "a1"}
	rng := rand.New(rand.NewSource(37))
	var sb strings.Builder
	sb.Grow(size + 64)
	for sb.Len() < size {
		if rng.Intn(7) == 0 {
			sb.WriteString(strings.Repeat("\n", 1+rng.Intn(4)))
			continue
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteString(strconv.Itoa(rng.Intn(100)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
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
