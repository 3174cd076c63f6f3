package pash

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
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

func TestTable1Export(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf)
	if !strings.Contains(buf.String(), "Stateless") {
		t.Error("WriteTable1 output malformed")
	}
}
