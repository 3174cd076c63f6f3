package agg

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/commands"
)

// memFS serves named in-memory streams to aggregate commands, playing
// the role the runtime's overlay filesystem plays for edge streams.
type memFS struct {
	files map[string]string
}

func (m memFS) Open(path string) (io.ReadCloser, error) {
	s, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("memFS: no stream %q", path)
	}
	return io.NopCloser(strings.NewReader(s)), nil
}

func (m memFS) Create(path string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("memFS: read-only")
}

func (m memFS) Append(path string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("memFS: read-only")
}

func treeReg() *commands.Registry {
	r := commands.NewStd()
	Install(r)
	return r
}

// runOver runs a command with the given operand streams.
func runOver(t *testing.T, reg *commands.Registry, name string, flagArgs []string, inputs []string) string {
	t.Helper()
	fs := memFS{files: map[string]string{}}
	args := append([]string{}, flagArgs...)
	for i, in := range inputs {
		op := fmt.Sprintf("s%d", i)
		fs.files[op] = in
		args = append(args, op)
	}
	var out bytes.Buffer
	err := reg.Run(name, &commands.Context{
		Args:   args,
		Stdin:  strings.NewReader(""),
		Stdout: &out,
		Stderr: io.Discard,
		FS:     fs,
	})
	if err != nil {
		if _, ok := err.(*commands.ExitError); !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}
	return out.String()
}

// reduceRandomTree aggregates the partials through a random-shape,
// order-preserving tree: repeatedly pick a contiguous group of 2..4
// partials and replace it with its aggregate, until one remains.
func reduceRandomTree(t *testing.T, reg *commands.Registry, aggName string, aggArgs []string, partials []string, rng *rand.Rand) string {
	t.Helper()
	items := append([]string{}, partials...)
	for len(items) > 1 {
		span := 2 + rng.Intn(3)
		if span > len(items) {
			span = len(items)
		}
		i := rng.Intn(len(items) - span + 1)
		combined := runOver(t, reg, aggName, aggArgs, items[i:i+span])
		items = append(items[:i], append([]string{combined}, items[i+span:]...)...)
	}
	return items[0]
}

// aggTreeCase is one (command, map, aggregate) triple under test.
type aggTreeCase struct {
	name    string
	cmdArgs []string // the original command (sequential reference + map)
	aggName string
	aggArgs []string
}

var aggTreeCases = []aggTreeCase{
	{"sort", nil, "sort", []string{"-m"}},
	{"sort", []string{"-rn"}, "sort", []string{"-m", "-rn"}},
	{"sort", []string{"-u"}, "sort", []string{"-m", "-u"}},
	{"wc", nil, "pash-agg-wc", nil},
	{"wc", []string{"-l"}, "pash-agg-wc", []string{"-l"}},
	{"wc", []string{"-lw"}, "pash-agg-wc", []string{"-lw"}},
	{"uniq", []string{"-c"}, "pash-agg-uniq", []string{"-c"}},
	{"uniq", nil, "pash-agg-uniq", nil},
	{"tac", nil, "pash-agg-tac", nil},
	{"pash-sort-count", nil, "pash-agg-sort-count", nil},
	{"pash-sort-count", []string{"-rn"}, "pash-agg-sort-count", []string{"-rn"}},
	// The stage's own ranked output is count lines, in an order the
	// aggregate does not care about: a map of sorts.
	{"pash-count-rank", []string{"-rn"}, "pash-agg-count-rank", []string{"-rn"}},
	{"pash-count-rank", []string{"-n"}, "pash-agg-count-rank", []string{"-n"}},
}

func randomCorpus(rng *rand.Rand, n int) string {
	words := []string{"ant", "bee", "cat", "dog", "ant", "cat", "7", "42", "-3", "0"}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(3) == 0 {
			sb.WriteByte(' ')
			sb.WriteString(words[rng.Intn(len(words))])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// splitChunks cuts the input into k contiguous line-aligned chunks —
// what the barrier split hands to pure-command maps.
func splitChunks(input string, k int) []string {
	lines := strings.SplitAfter(input, "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	per := (len(lines) + k - 1) / k
	if per == 0 {
		per = 1
	}
	var out []string
	for lo := 0; lo < len(lines); lo += per {
		hi := lo + per
		if hi > len(lines) {
			hi = len(lines)
		}
		out = append(out, strings.Join(lines[lo:hi], ""))
	}
	for len(out) < k {
		out = append(out, "")
	}
	return out
}

// TestAggTreeAssociativity is the property test behind the fan-in-k
// aggregation trees: for every associative aggregator, aggregating the
// map partials through a random tree shape produces the same bytes as
// the flat n-ary aggregate, which in turn equals the sequential
// command. 40 random (corpus, width, shape) triples per aggregator.
func TestAggTreeAssociativity(t *testing.T) {
	reg := treeReg()
	rng := rand.New(rand.NewSource(17))
	for _, tc := range aggTreeCases {
		for trial := 0; trial < 40; trial++ {
			corpus := randomCorpus(rng, rng.Intn(400))
			width := 2 + rng.Intn(15)
			chunks := splitChunks(corpus, width)
			partials := make([]string, len(chunks))
			for i, ch := range chunks {
				partials[i] = runOverStdin(t, reg, tc.name, tc.cmdArgs, ch)
			}
			flat := runOver(t, reg, tc.aggName, tc.aggArgs, partials)
			tree := reduceRandomTree(t, reg, tc.aggName, tc.aggArgs, partials, rng)
			if flat != tree {
				t.Fatalf("%s/%s trial %d width %d: tree diverged from flat\nflat: %q\ntree: %q",
					tc.name, tc.aggName, trial, width, flat, tree)
			}
			seq := runOverStdin(t, reg, tc.name, tc.cmdArgs, corpus)
			if flat != seq {
				t.Fatalf("%s/%s trial %d width %d: aggregate diverged from sequential\nseq:  %q\nflat: %q",
					tc.name, tc.aggName, trial, width, seq, flat)
			}
		}
	}
}

func runOverStdin(t *testing.T, reg *commands.Registry, name string, args []string, input string) string {
	t.Helper()
	var out bytes.Buffer
	err := reg.Run(name, &commands.Context{
		Args:   args,
		Stdin:  strings.NewReader(input),
		Stdout: &out,
		Stderr: io.Discard,
	})
	if err != nil {
		if _, ok := err.(*commands.ExitError); !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}
	return out.String()
}

// TestResolveAssociativity pins which aggregators may form trees.
func TestResolveAssociativity(t *testing.T) {
	// The bigram aggregate strips its own input markers: must stay flat.
	// Everything else resolved here is associative.
	check := func(name string, args []string, want bool) {
		t.Helper()
		inv := commands.Std().Classify(name, args)
		spec, ok := Resolve(name, args, inv)
		if !ok {
			t.Fatalf("Resolve(%s %v) failed", name, args)
		}
		if spec.Associative != want {
			t.Fatalf("Resolve(%s %v).Associative = %v, want %v", name, args, spec.Associative, want)
		}
	}
	check("sort", nil, true)
	check("uniq", []string{"-c"}, true)
	check("wc", []string{"-l"}, true)
	check("tac", nil, true)
	check("pash-sort-count", []string{"-k2"}, true)
	check("pash-count-rank", []string{"-rn"}, true)
	check("bigrams-aux", nil, false)
}
