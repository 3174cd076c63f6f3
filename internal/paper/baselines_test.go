package paper

import (
	"context"
	"testing"

	"repro/internal/core"
)

func seqRun(t *testing.T, script, input string) string {
	t.Helper()
	out, err := runScript(context.Background(), core.Options{Width: 1}, script, input, "")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNaiveParallelCorrectForStateless(t *testing.T) {
	// Pure per-line scripts are safe to block-parallelize: outputs match.
	input := Text(500, 3)
	script := "tr A-Z a-z | grep the"
	want := seqRun(t, script, input)
	got, err := naiveParallel(context.Background(), script, input, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("naive parallel diverged on a stateless pipeline")
	}
}

func TestNaiveParallelBreaksSort(t *testing.T) {
	// The paper's point: blind block parallelism breaks sort/uniq
	// pipelines badly.
	input := Text(2000, 3)
	script := "tr A-Z a-z | tr ' ' '\\n' | sort | uniq -c | sort -rn"
	want := seqRun(t, script, input)
	got, err := naiveParallel(context.Background(), script, input, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Fatal("naive parallel unexpectedly produced correct output")
	}
	div := divergence(want, got)
	if div < 0.5 {
		t.Errorf("divergence = %.2f, expected massive corruption (paper: 0.92)", div)
	}
}

func TestDivergence(t *testing.T) {
	if d := divergence("a\nb\n", "a\nb\n"); d != 0 {
		t.Errorf("identical divergence = %f", d)
	}
	if d := divergence("a\nb\n", "a\nc\n"); d != 0.5 {
		t.Errorf("half divergence = %f", d)
	}
	if d := divergence("", ""); d != 0 {
		t.Errorf("empty divergence = %f", d)
	}
	if d := divergence("a\n", "a\nb\nc\n"); d < 0.6 {
		t.Errorf("length mismatch divergence = %f", d)
	}
}

func TestParallelSortMatchesSequential(t *testing.T) {
	input := Text(3000, 5)
	seq, err := parallelSort(input, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parallelSort(input, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Error("sort --parallel output differs from sequential sort")
	}
	rev, err := parallelSort(input, 8, "-r")
	if err != nil {
		t.Fatal(err)
	}
	if rev == par {
		t.Error("-r flag ignored")
	}
}
