package benchscripts

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/shell"
)

// Differential conformance: the interpreter must produce byte-identical
// output to a real POSIX shell running the same script over the same
// inputs — at width 1 (plain interpretation) and width 8 (the full
// parallelizing pipeline: splits, framing, fusion, aggregation trees).
// A divergence is reported with the first line that differs.

// systemShell picks the comparison shell: dash (the paper's host shell)
// first, then bash, then sh.
func systemShell(t *testing.T) string {
	t.Helper()
	for _, sh := range []string{"dash", "bash", "sh"} {
		if path, err := exec.LookPath(sh); err == nil {
			return path
		}
	}
	t.Skip("no system shell (dash/bash/sh) on this host")
	return ""
}

// scriptCommands extracts every command name invoked by the script, so
// benches using tools this host lacks (file, custom helpers like
// bigrams-aux) skip instead of failing.
func scriptCommands(t *testing.T, src string) []string {
	t.Helper()
	list, err := shell.Parse(src)
	if err != nil {
		t.Fatalf("corpus script does not parse: %v\n%s", err, src)
	}
	seen := map[string]bool{}
	var walk func(n shell.Node)
	walk = func(n shell.Node) {
		switch n := n.(type) {
		case *shell.List:
			if n == nil {
				return
			}
			for _, it := range n.Items {
				walk(it.Cmd)
			}
		case *shell.Simple:
			if len(n.Args) > 0 {
				if lit, ok := n.Args[0].Literal(); ok {
					seen[lit] = true
				}
			}
		case *shell.Pipeline:
			for _, c := range n.Cmds {
				walk(c)
			}
		case *shell.AndOr:
			walk(n.First)
			for _, p := range n.Rest {
				walk(p.Cmd)
			}
		case *shell.For:
			walk(n.Body)
		case *shell.If:
			walk(n.Cond)
			walk(n.Then)
			walk(n.Else)
		case *shell.While:
			walk(n.Cond)
			walk(n.Body)
		case *shell.Subshell:
			walk(n.Body)
		case *shell.Brace:
			walk(n.Body)
		}
	}
	walk(list)
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	return out
}

// shellBuiltins never need a binary on PATH.
var shellBuiltins = map[string]bool{
	"cd": true, "echo": true, "exec": true, "export": true, "set": true,
	"true": true, "false": true, "read": true, "wait": true, "umask": true,
}

// runSystemShell executes the script under the system shell in dir with
// a byte-order locale (LC_ALL=C), matching the interpreter's collation.
func runSystemShell(t *testing.T, shPath, script, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command(shPath, "-c", script)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LC_ALL=C", "LANG=C")
	cmd.Stdin = strings.NewReader("")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return out.String(), fmt.Errorf("%v (stderr: %s)", err, strings.TrimSpace(errb.String()))
	}
	return out.String(), nil
}

// firstDiff returns the 1-based number of the first line where want and
// got differ, with both versions of that line.
func firstDiff(want, got string) (int, string, string) {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || (i >= len(wl) && i >= len(gl)) {
			return i + 1, w, g
		}
	}
}

// conformanceCorpus lists the benches the suite covers: the Tab. 2
// one-liners, the full Unix50 set, and the shell-form scripts
// (heredocs, subshells). The diff bench is excluded:
// diff's hunk selection is implementation-defined (GNU applies
// cost-cutoff heuristics that produce legitimately different — larger
// or smaller — edit scripts than a minimal Myers diff), so its piped
// `grep -c '^>'` count cannot be compared byte-for-byte across
// implementations.
func conformanceCorpus() []paper.Bench {
	var out []paper.Bench
	for _, b := range append(corpus(), paper.ShellForms()...) {
		if b.Name == "diff" {
			continue
		}
		out = append(out, b)
	}
	return out
}

// TestShellFormsAgainstDashAndBash runs the heredoc/subshell corpus
// against *both* dash and bash (when present), not just whichever the
// host offers first: heredoc expansion rules are where shells
// historically diverge, so agreeing with one shell is not enough.
func TestShellFormsAgainstDashAndBash(t *testing.T) {
	shells := 0
	for _, sh := range []string{"dash", "bash"} {
		shPath, err := exec.LookPath(sh)
		if err != nil {
			continue
		}
		shells++
		for _, b := range paper.ShellForms() {
			b := b
			t.Run(sh+"/"+b.Name, func(t *testing.T) {
				p := prepare(t, b)
				want, err := runSystemShell(t, shPath, p.script, p.dir)
				if err != nil {
					t.Skipf("%s cannot run this script: %v", sh, err)
				}
				for _, w := range []int{1, 8} {
					res, err := p.execute(core.DefaultOptions(w))
					if err != nil {
						t.Fatalf("width %d: %v", w, err)
					}
					if got := string(res.output); got != want {
						line, wl, gl := firstDiff(want, got)
						t.Errorf("width %d diverges from %s at line %d: want %q, got %q\n--- want:\n%s--- got:\n%s",
							w, sh, line, wl, gl, want, got)
					}
				}
			})
		}
	}
	if shells == 0 {
		t.Skip("neither dash nor bash on this host")
	}
}

func TestConformanceAgainstSystemShell(t *testing.T) {
	shPath := systemShell(t)
	widths := []int{1, 8}
	for _, b := range conformanceCorpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p := prepare(t, b)
			for _, name := range scriptCommands(t, p.script) {
				if shellBuiltins[name] {
					continue
				}
				if _, err := exec.LookPath(name); err != nil {
					t.Skipf("host lacks %q; cannot run the system-shell baseline", name)
				}
			}
			want, err := runSystemShell(t, shPath, p.script, p.dir)
			if err != nil {
				t.Skipf("system shell cannot run this script: %v", err)
			}
			for _, w := range widths {
				res, err := p.execute(core.DefaultOptions(w))
				if err != nil {
					t.Fatalf("width %d: %v", w, err)
				}
				got := string(res.output)
				if got != want {
					line, wl, gl := firstDiff(want, got)
					t.Errorf("width %d diverges from %s at line %d: want %q, got %q (%d vs %d bytes)\nscript:\n%s",
						w, shPath, line, wl, gl, len(got), len(want), p.script)
				}
			}
		})
	}
}
