package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// Failure-injection tests: the compiler and runtime must fail loudly and
// cleanly (no hangs, no partial silence) on bad inputs.

// A missing input file fails the command that reads it, not the script:
// the command reports it and the script goes on, at every width, where a
// split reads the file (and must not hang) as much as where the command
// opens it itself.
func TestMissingInputFileFails(t *testing.T) {
	for _, opts := range []Options{{Width: 1}, DefaultOptions(4)} {
		out, stderr, code, err := runScriptStderr(t, opts, "cat does-not-exist.txt | sort; echo after")
		if err != nil || out != "after\n" || code != 0 {
			t.Fatalf("width %d: output %q, status %d, err %v; want after, 0 and no error", opts.Width, out, code, err)
		}
		if !strings.Contains(stderr, "does-not-exist") {
			t.Errorf("width %d: stderr does not name the file: %q", opts.Width, stderr)
		}
	}
}

func TestMissingInputFileParallelFails(t *testing.T) {
	// The same through a redirect, under a split that reads the missing
	// file: the region ends, reports the file and the script goes on.
	out, stderr, _, err := runScriptStderr(t, Options{Width: 8, Preset: ParBSplit}, "grep x < nope.txt | tr a-z A-Z; echo after")
	if err != nil || out != "after\n" || !strings.Contains(stderr, "nope.txt") {
		t.Fatalf("output %q, stderr %q, err %v; want after, nope.txt reported and no error", out, stderr, err)
	}
}

// runScriptStderr runs src in a fresh directory and returns its stdout,
// its stderr, its status and its error.
func runScriptStderr(t *testing.T, opts Options, src string) (string, string, int, error) {
	t.Helper()
	var out, stderr bytes.Buffer
	code, err := Run(context.Background(), NewCompiler(opts), src, t.TempDir(), nil,
		runtime.StdIO{Stdin: strings.NewReader(""), Stdout: &out, Stderr: &stderr})
	return out.String(), stderr.String(), code, err
}

func TestBadFlagFails(t *testing.T) {
	_, _, err := runScriptCode(t, Options{Width: 1}, "sort --nonsense", "a\n", "", nil)
	if err == nil {
		t.Fatal("unknown flag must error")
	}
}

func TestBadRegexFails(t *testing.T) {
	_, _, err := runScriptCode(t, Options{Width: 1}, "grep '(['", "a\n", "", nil)
	if err == nil {
		t.Fatal("invalid regex must error")
	}
}

func TestSedUnsupportedFails(t *testing.T) {
	_, _, err := runScriptCode(t, Options{Width: 1}, "sed -i 's/a/b/' f.txt", "", "", nil)
	if err == nil {
		t.Fatal("sed -i must be rejected")
	}
}

func TestSyntaxErrorSurfaces(t *testing.T) {
	_, code, err := runScriptCode(t, Options{Width: 1}, "cat |", "", "", nil)
	if err == nil {
		t.Fatal("syntax error must surface")
	}
	if code != 127 {
		t.Errorf("syntax error exit code = %d, want 127", code)
	}
}

func TestErrorInOneParallelBranchPropagates(t *testing.T) {
	// comm against a missing dictionary: its failure must propagate out
	// of the parallel region as comm's status, 1 as the host's, not
	// deadlock the other branches.
	src := "tr A-Z a-z | sort -u | comm -23 - missing-dict.txt"
	_, code, err := runScriptCode(t, DefaultOptions(4), src, "a\nb\n", t.TempDir(), nil)
	if err != nil || code != 1 {
		t.Fatalf("missing dictionary: status %d, err %v; want status 1 and no error", code, err)
	}
}

func TestEmptyInputEverywhere(t *testing.T) {
	// Zero-byte input must produce zero/degenerate output without
	// errors across configurations.
	for _, src := range []string{
		"grep x | sort | uniq -c",
		"tr a-z A-Z | head -n 5",
		"sort | tac",
		"wc -l",
	} {
		want := runScript(t, Options{Width: 1}, src, "", "", nil)
		got := runScript(t, DefaultOptions(4), src, "", "", nil)
		if got != want {
			t.Errorf("%s on empty input: %q vs %q", src, got, want)
		}
	}
}

func TestSingleLineInput(t *testing.T) {
	// Width far larger than the data: most replicas see empty chunks.
	for _, src := range []string{
		"grep a | tr a-z A-Z",
		"sort -rn",
		"uniq -c",
		"bigrams-aux",
	} {
		want := runScript(t, Options{Width: 1}, src, "a 1\n", "", nil)
		got := runScript(t, DefaultOptions(16), src, "a 1\n", "", nil)
		if got != want {
			t.Errorf("%s on single line: %q vs %q", src, got, want)
		}
	}
}
