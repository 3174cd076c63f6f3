package core

import (
	"strings"
	"testing"
)

// Failure-injection tests: the compiler and runtime must fail loudly and
// cleanly (no hangs, no partial silence) on bad inputs.

func TestMissingInputFileFails(t *testing.T) {
	_, _, err := runScriptCode(t, DefaultOptions(4), "cat does-not-exist.txt | sort", "", t.TempDir(), nil)
	if err == nil {
		t.Fatal("missing input file must error")
	}
	if !strings.Contains(err.Error(), "does-not-exist") {
		t.Errorf("error does not name the file: %v", err)
	}
}

func TestMissingInputFileParallelFails(t *testing.T) {
	// Same failure with the transformed graph (split over a missing
	// file must not hang).
	_, _, err := runScriptCode(t, Options{Width: 8, Preset: ParBSplit}, "grep x < nope.txt | tr a-z A-Z", "", t.TempDir(), nil)
	if err == nil {
		t.Fatal("missing redirect input must error")
	}
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
	// comm against a missing dictionary: the error must propagate out
	// of the parallel region, not deadlock the other branches.
	src := "tr A-Z a-z | sort -u | comm -23 - missing-dict.txt"
	_, _, err := runScriptCode(t, DefaultOptions(4), src, "a\nb\n", t.TempDir(), nil)
	if err == nil {
		t.Fatal("missing config file must error")
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
