package runtime

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
)

// countingFS counts the opens of each path that reach the filesystem.
type countingFS struct {
	commands.OSFS
	mu    sync.Mutex
	opens map[string]int
}

func (c *countingFS) Open(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	c.opens[path]++
	c.mu.Unlock()
	return c.OSFS.Open(path)
}

// TestOperandOpenedOnce: a file operand is opened once per region. The
// executor opens it before any node runs, and the command that opens the
// operand by name is handed that file, under the operand's real name.
// A jailed operand fails the region before it writes a byte; a missing
// one fails the command that names it, which reports it and exits 1
// (grep and sort 2), and the region ends with that status.
func TestOperandOpenedOnce(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{"f": "x1\ny\nx2\n", "a": "1\n2\n3\n", "b": "2\n3\n4\n"} {
		must(t, os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644))
	}
	var stderr bytes.Buffer
	status := 0
	run := func(cfg Config, name string, args []string, operands ...string) (string, map[string]int, error) {
		t.Helper()
		g := dfg.New()
		var argv []dfg.Arg
		for _, a := range args {
			argv = append(argv, dfg.Lit(a))
		}
		for i := range operands {
			argv = append(argv, dfg.InArg(i))
		}
		n := g.AddNode(dfg.NewNode(dfg.KindCommand, name, argv, annot.Pure))
		for _, path := range operands {
			n.In = append(n.In, g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: path}, To: n}))
		}
		n.Out = append(n.Out, g.AddEdge(&dfg.Edge{From: n, Sink: dfg.Binding{Kind: dfg.BindStdout}}))
		counter := &countingFS{OSFS: commands.OSFS{Dir: cfg.Dir, Jail: cfg.Sandbox}, opens: map[string]int{}}
		var out bytes.Buffer
		ex := &executor{g: g, reg: testRegistry(), stdio: StdIO{Stdout: &out, Stderr: &stderr}, cfg: cfg, overlay: &overlayFS{base: counter}}
		res, err := ex.run(context.Background())
		if res != nil {
			status = res.ExitCode
		}
		return out.String(), counter.opens, err
	}
	for _, c := range []struct {
		name     string
		args     []string
		operands []string
		want     string
		opens    map[string]int
	}{
		{"grep", []string{"-c", "x"}, []string{"f"}, "2\n", map[string]int{"f": 1}},
		{"grep", []string{"-H", "x"}, []string{"f"}, "f:x1\nf:x2\n", map[string]int{"f": 1}},
		{"cat", nil, []string{"f", "f"}, "x1\ny\nx2\nx1\ny\nx2\n", map[string]int{"f": 2}},
		{"comm", nil, []string{"a", "b"}, "1\n\t\t2\n\t\t3\n\t4\n", map[string]int{"a": 1, "b": 1}},
	} {
		out, opens, err := run(Config{Dir: dir}, c.name, c.args, c.operands...)
		if err != nil {
			t.Fatalf("%s %v %v: %v", c.name, c.args, c.operands, err)
		}
		if out != c.want || !reflect.DeepEqual(opens, c.opens) {
			t.Errorf("%s %v %v: output %q, opens %v; want %q, %v", c.name, c.args, c.operands, out, opens, c.want, c.opens)
		}
	}

	for _, c := range []struct {
		name     string
		args     []string
		operands []string
		status   int
		want     string
	}{
		{"cat", nil, []string{"nope"}, 1, ""},
		{"sort", nil, []string{"f", "nope"}, 2, ""},
		{"grep", []string{"x"}, []string{"f", "nope"}, 2, "f:x1\nf:x2\n"},
	} {
		stderr.Reset()
		out, _, err := run(Config{Dir: dir}, c.name, c.args, c.operands...)
		if err != nil || status != c.status || out != c.want || !bytes.Contains(stderr.Bytes(), []byte("nope")) {
			t.Errorf("%s %v %v: err %v, status %d, output %q, stderr %q; want status %d, output %q and nope reported",
				c.name, c.args, c.operands, err, status, out, stderr.String(), c.status, c.want)
		}
	}
	out, _, err := run(Config{Dir: dir, Sandbox: true}, "cat", nil, "f", "../f")
	if !errors.Is(err, commands.ErrJailEscape) || out != "" {
		t.Errorf("sandboxed cat f ../f: err %v, output %q; want a jail escape and no output", err, out)
	}
}
