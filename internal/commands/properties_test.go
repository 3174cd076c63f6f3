package commands

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// These tests check the formal properties from §4.2 directly against the
// command implementations:
//
//	stateless f:    f(x · x') == f(x) · f(x')
//	pure (m, agg):  f(x · x') == agg(m(x) · m(x'))
//
// Inputs are random line streams; commands are run via the registry.

// genLines builds a random newline-terminated input from a seeded rand.
func genLines(r *rand.Rand, maxLines int) string {
	words := []string{"apple", "banana", "cherry", "999", "42", "gz", "tar",
		"the", "quick", "Fox", "jumps", "OVER", "lazy", "dog", "", "a b c"}
	n := r.Intn(maxLines)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(3)
		var parts []string
		for j := 0; j < k; j++ {
			parts = append(parts, words[r.Intn(len(words))])
		}
		sb.WriteString(strings.Join(parts, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func runQuiet(t *testing.T, name string, args []string, stdin string) string {
	t.Helper()
	var out bytes.Buffer
	ctx := &Context{Args: args, Stdin: strings.NewReader(stdin), Stdout: &out}
	err := Std().Run(name, ctx)
	if err != nil {
		if _, ok := err.(*ExitError); !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}
	return out.String()
}

// checkStateless verifies the homomorphism property for one command
// invocation across random input splits.
func checkStateless(t *testing.T, name string, args []string) {
	t.Helper()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := genLines(r, 20)
		y := genLines(r, 20)
		whole := runQuiet(t, name, args, x+y)
		parts := runQuiet(t, name, args, x) + runQuiet(t, name, args, y)
		if whole != parts {
			t.Logf("%s %v violated: x=%q y=%q whole=%q parts=%q", name, args, x, y, whole, parts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("%s %v: stateless homomorphism violated: %v", name, args, err)
	}
}

func TestStatelessHomomorphism(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"grep", []string{"a"}},
		{"grep", []string{"-v", "999"}},
		{"grep", []string{"-i", "fox"}},
		{"tr", []string{"a-z", "A-Z"}},
		{"tr", []string{"-d", "aeiou"}},
		{"cut", []string{"-d", " ", "-f1"}},
		{"cut", []string{"-c", "1-3"}},
		{"sed", []string{"s/a/X/g"}},
		{"sed", []string{"s;^;pre/;"}},
		{"rev", nil},
		{"fold", []string{"-w", "5"}},
		{"html-to-text", nil},
		{"url-extract", nil},
		{"word-stem", nil},
		{"trigrams", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name+"_"+strings.Join(c.args, "_"), func(t *testing.T) {
			checkStateless(t, c.name, c.args)
		})
	}
}

// TestSortMapAggregate checks f(x·x') == agg(m(x)·m(x')) where f = sort,
// m = sort, and agg = sort -m over the two sorted chunks.
func TestSortMapAggregate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := genLines(r, 30)
		y := genLines(r, 30)
		whole := runQuiet(t, "sort", nil, x+y)

		mx := runQuiet(t, "sort", nil, x)
		my := runQuiet(t, "sort", nil, y)
		var out bytes.Buffer
		lw := NewLineWriter(&out)
		err := mergeSorted(
			[]io.Reader{strings.NewReader(mx), strings.NewReader(my)},
			lw, (&sortConfig{}).order(), false)
		if err != nil {
			t.Fatal(err)
		}
		lw.Flush()
		return out.String() == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("sort map/aggregate equation violated: %v", err)
	}
}

// TestWcMapAggregate checks that summing per-chunk wc -l equals whole wc -l.
func TestWcMapAggregate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := genLines(r, 30)
		y := genLines(r, 30)
		whole := strings.TrimSpace(runQuiet(t, "wc", []string{"-l"}, x+y))
		cx := strings.TrimSpace(runQuiet(t, "wc", []string{"-l"}, x))
		cy := strings.TrimSpace(runQuiet(t, "wc", []string{"-l"}, y))
		return atoiMust(cx)+atoiMust(cy) == atoiMust(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("wc map/aggregate violated: %v", err)
	}
}

func atoiMust(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestNonStatelessCounterexample documents why uniq is NOT stateless:
// the homomorphism fails when a duplicate run crosses the split.
func TestNonStatelessCounterexample(t *testing.T) {
	x, y := "a\na\n", "a\nb\n"
	whole := runQuiet(t, "uniq", nil, x+y)
	parts := runQuiet(t, "uniq", nil, x) + runQuiet(t, "uniq", nil, y)
	if whole == parts {
		t.Error("expected uniq to violate the stateless homomorphism on a boundary duplicate")
	}
}
