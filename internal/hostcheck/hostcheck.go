// Package hostcheck is the host half of the host-differential tests: it
// runs a script under one of the host's shells with LC_ALL=C, the byte
// order every command here collates and folds in, so a test can require
// that pash prints what the host prints and exits alike. Only _test.go
// files import it.
package hostcheck

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/shell"
)

// Result is what a script printed on the host and how it exited.
type Result struct {
	Stdout, Stderr string
	Code           int
}

// Run runs script under the named shell (dash, bash, sh) in dir — the
// test's own directory when dir is "" — over stdin, with LC_ALL=C. It
// skips t when the host lacks the shell or a command the script names.
func Run(t testing.TB, sh, dir, script, stdin string) Result {
	t.Helper()
	path, err := exec.LookPath(sh)
	if err != nil {
		t.Skipf("no host %s", sh)
	}
	names, err := scriptCommands(script)
	if err != nil {
		t.Fatalf("%q does not parse: %v", script, err)
	}
	for _, name := range names {
		if _, err := exec.LookPath(name); err != nil {
			t.Skipf("no host %s for %q", name, script)
		}
	}
	cmd := exec.Command(path, "-c", script)
	cmd.Dir, cmd.Stdin = dir, strings.NewReader(stdin)
	cmd.Env = append(os.Environ(), "LC_ALL=C")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("host %s -c %q: %v", sh, script, err)
	}
	return Result{out.String(), errOut.String(), cmd.ProcessState.ExitCode()}
}

// Quote renders argv as one shell command line, each word single-quoted.
func Quote(argv ...string) string {
	words := make([]string, len(argv))
	for i, a := range argv {
		words[i] = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
	}
	return strings.Join(words, " ")
}

// builtins are the commands a script may name that no host needs on its
// PATH.
var builtins = map[string]bool{
	"cd": true, "echo": true, "exec": true, "export": true, "set": true,
	"true": true, "false": true, "read": true, "wait": true, "umask": true,
	":": true, "exit": true,
}

// scriptCommands returns every command the script names as a literal word,
// builtins aside, wherever it stands: in a pipeline, an and-or list, a
// loop, a branch or a group.
func scriptCommands(script string) ([]string, error) {
	list, err := shell.Parse(script)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
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
				if name, ok := n.Args[0].Literal(); ok && !builtins[name] && !seen[name] {
					seen[name] = true
					names = append(names, name)
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
	return names, nil
}

// Diff says where got first departs from the host's want: both lengths,
// the byte offset and line number, and each side's line there, clipped.
func Diff(got, want string) string {
	if got == want {
		return fmt.Sprintf("%d bytes, as the host", len(got))
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	start := strings.LastIndexByte(got[:i], '\n') + 1
	line := func(s string) string {
		s = s[start:]
		if end := strings.IndexByte(s, '\n'); end >= 0 {
			s = s[:end+1]
		}
		if len(s) > 80 {
			s = s[:80] + "..."
		}
		return s
	}
	return fmt.Sprintf("%d bytes, host %d; first difference at byte %d, line %d: %q, host %q",
		len(got), len(want), i, strings.Count(got[:i], "\n")+1, line(got), line(want))
}
