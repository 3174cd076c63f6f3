package pash

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/paper"
)

func TestSessionRun(t *testing.T) {
	s := NewSession(DefaultOptions(4))
	var out bytes.Buffer
	code, err := s.Run(context.Background(), "grep -c a", strings.NewReader("a\nb\nab\n"), &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	if out.String() != "2\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestSessionParallelMatchesSequential(t *testing.T) {
	var input strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&input, "word%d value%d\n", i%97, i%13)
	}
	script := "tr a-z A-Z | sort | uniq -c | sort -rn | head -n 5"
	run := func(opts Options) string {
		s := NewSession(opts)
		var out bytes.Buffer
		if _, err := s.Run(context.Background(), script, strings.NewReader(input.String()), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq := run(SequentialOptions())
	par := run(DefaultOptions(8))
	if seq != par {
		t.Errorf("parallel diverged:\nseq %q\npar %q", seq, par)
	}
}

func TestRegisterCommandAndAnnotation(t *testing.T) {
	s := NewSession(DefaultOptions(4))
	double := func(args []string, stdin io.Reader, stdout io.Writer) error {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			fmt.Fprintf(stdout, "%s %s\n", line, line)
		}
		return nil
	}
	if err := s.Register(CommandSpec{Name: "double", Run: double, Annotation: StdinStdout(ClassStateless)}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err := s.Run(context.Background(), "double | head -n 2", strings.NewReader("x\ny\nz\n"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x x\ny y\n" {
		t.Errorf("custom command output = %q", out.String())
	}
	// The shared registries must be unaffected by the session-local
	// registration.
	s2 := NewSession(DefaultOptions(2))
	var out2 bytes.Buffer
	if _, err := s2.Run(context.Background(), "double", strings.NewReader("x\n"), &out2, io.Discard); err == nil {
		t.Error("custom command leaked into a fresh session")
	}
}

func TestCompileEmit(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	plan, err := s.Compile("cat a.txt | grep x | wc -l")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mkfifo") {
		t.Errorf("emitted plan missing fifos:\n%s", buf.String())
	}
}

func TestRunStats(t *testing.T) {
	s := NewSession(DefaultOptions(8))
	var out bytes.Buffer
	_, stats, err := s.RunStats(context.Background(), "grep a | sort",
		strings.NewReader("b\na\nab\n"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions != 1 || stats.TotalNodes < 10 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestWidthFourMatchesWidthOneOnGroupingCommands runs, as the pash binary
// does (the Planned preset), commands whose output depends on how their
// input is grouped over a file large enough to plan width 4: grep -l/-L
// print operand names (a replica would see "(standard input)"), and xargs
// batches words or lines across line boundaries unless a batch is one
// word or one line. Stdout, stderr and the exit status must be width 1's,
// and the per-item xargs forms must still be planned wide.
func TestWidthFourMatchesWidthOneOnGroupingCommands(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	words := []string{"alpha", "beta", "gamma", "delta", "a", "b"}
	var sb strings.Builder
	for sb.Len() < 2200<<10 {
		for i, n := 0, rng.Intn(6); i < n; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "u"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(opts Options, script string) string {
		s := NewSession(opts)
		s.Dir = dir
		var out bytes.Buffer
		code, _ := s.Run(context.Background(), script, strings.NewReader(""), &out, &out)
		return fmt.Sprintf("exit %d\n%s", code, out.String())
	}
	// replicas counts the nodes running the script's first command in the
	// width-4 plan.
	replicas := func(script string) int {
		s := NewSession(Options{Width: 4, Preset: Planned})
		s.Dir = dir
		p, err := s.CompileExec(script)
		if err != nil || len(p.Items) != 1 || p.Items[0].Graph == nil {
			t.Fatalf("%s: not one lifted region: %v", script, err)
		}
		n := 0
		for _, node := range p.Items[0].Graph.Nodes {
			if node.Name == strings.Fields(script)[0] {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		script string
		wide   bool // the first command is replicated
	}{
		{"grep -l a u", false},
		{"grep -l -e a u", false},
		{"grep -L a u", false},
		{"xargs -n 3 echo < u | wc -l", false},
		{"xargs echo < u | wc -l", false},
		{"xargs < u | wc -l", false},
		{"xargs -L 2 echo < u | wc -l", false},
		{"xargs -n 1 echo < u | wc -l", true},
		{"xargs -L 1 echo < u | wc -l", true},
	} {
		if want, got := run(Options{Width: 1}, tc.script), run(Options{Width: 4, Preset: Planned}, tc.script); got != want {
			t.Errorf("%s: width 4 differs from width 1\n--- width 1:\n%.300s\n--- width 4:\n%.300s", tc.script, want, got)
		}
		if n := replicas(tc.script); (n > 1) != tc.wide {
			t.Errorf("%s: %d replicas at width 4, want wide = %v", tc.script, n, tc.wide)
		}
	}
}

// TestSortTieRulesMatchHost checks sort's tie rules against the host's
// GNU sort under LC_ALL=C, through a session that plans like the pash
// binary: each script reads its input from a pipe, so it plans the whole
// width ceiling, 1, 2, 4 and 8. Every input is over 1 MiB. -nu and -nru
// keep the first of each run of equal keys in input order, -u -k2,2 and
// -s -k2,2 do the same for a field, -f falls back to the whole line, and
// -cu reports equal neighbours.
func TestSortTieRulesMatchHost(t *testing.T) {
	host, err := exec.LookPath("sort")
	if err != nil {
		t.Skip("no host sort")
	}
	rng := rand.New(rand.NewSource(33))
	var ints, numbered strings.Builder
	for ints.Len() < 1200<<10 {
		fmt.Fprintf(&ints, "%s%d\n", strings.Repeat("0", rng.Intn(3)), rng.Intn(1000))
	}
	// Capitalise one line in eight, so -f has case to fold.
	text := paper.Text(40_000, 33)
	lines := strings.SplitAfter(text[:len(text)-1], "\n")
	for i := 0; i < len(lines); i += 8 {
		lines[i] = strings.ToUpper(lines[i][:1]) + lines[i][1:]
	}
	text = strings.Join(lines, "") + "\n"
	for i, line := range lines {
		fmt.Fprintf(&numbered, "%d %s", i%100, line)
	}
	numbered.WriteByte('\n')
	sortedInts := strings.SplitAfter(ints.String(), "\n")
	slices.Sort(sortedInts)
	for _, tc := range []struct {
		argv  []string
		input string
	}{
		{[]string{"-nu"}, ints.String()},
		{[]string{"-u", "-k2,2"}, text},
		{[]string{"-f"}, text},
		{[]string{"-s", "-k2,2"}, text},
		{[]string{"-nru"}, numbered.String()},
		{[]string{"-cu"}, strings.Join(sortedInts, "")},
	} {
		if len(tc.input) < 1<<20 {
			t.Fatalf("sort %v: input is %d bytes, want over 1 MiB", tc.argv, len(tc.input))
		}
		cmd := exec.Command(host, tc.argv...)
		cmd.Env = append(os.Environ(), "LC_ALL=C")
		cmd.Stdin = strings.NewReader(tc.input)
		want, err := cmd.Output()
		if _, exit := err.(*exec.ExitError); err != nil && !exit {
			t.Fatal(err)
		}
		script := "sort " + strings.Join(tc.argv, " ")
		for _, width := range []int{1, 2, 4, 8} {
			s := NewSession(Options{Width: width, Preset: Planned})
			var out bytes.Buffer
			pipe := struct{ io.Reader }{strings.NewReader(tc.input)} // no size to plan from
			code, st, _ := s.RunStats(context.Background(), script, pipe, &out, io.Discard)
			if code != cmd.ProcessState.ExitCode() || out.String() != string(want) {
				t.Errorf("%s at width %d (%v): exit %d and %d lines, host exit %d and %d lines",
					script, width, st.Widths, code, strings.Count(out.String(), "\n"),
					cmd.ProcessState.ExitCode(), bytes.Count(want, []byte("\n")))
			}
		}
	}
}
