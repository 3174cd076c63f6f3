package agg

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/commands"
)

func reg() *commands.Registry {
	r := commands.NewStd()
	Install(r)
	return r
}

// runCmd executes a command with the given file operands in dir.
func runCmd(t *testing.T, r *commands.Registry, dir, name string, args []string, stdin string) string {
	t.Helper()
	var out bytes.Buffer
	ctx := &commands.Context{
		Args:   args,
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		FS:     commands.OSFS{Dir: dir},
	}
	if err := r.Run(name, ctx); err != nil {
		if _, ok := err.(*commands.ExitError); !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}
	return out.String()
}

// checkPair verifies the §4.2 equation f(x·x') = agg(m(x)·m(x')) for a
// resolved pair across random 3-way chunkings.
func checkPair(t *testing.T, name string, argv []string) {
	t.Helper()
	r := reg()
	stdReg := commands.Std()
	inv := stdReg.Classify(name, argv)
	spec, ok := Resolve(name, argv, inv)
	if !ok {
		t.Fatalf("no aggregator for %s %v", name, argv)
	}
	words := []string{"apple", "apple", "banana", "12", "7", "7", "42", "zebra", "kiwi", "kiwi", "kiwi", "", ""}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lines []string
		for i := 0; i < rng.Intn(40); i++ {
			lines = append(lines, words[rng.Intn(len(words))])
		}
		input := strings.Join(lines, "\n")
		if len(lines) > 0 {
			input += "\n"
		}
		// Whole-input reference.
		whole := runCmd(t, r, "", name, argv, input)

		// Three chunks, maps, then aggregate over files.
		c1 := rng.Intn(len(lines) + 1)
		c2 := c1 + rng.Intn(len(lines)-c1+1)
		chunks := []string{
			joinLines(lines[:c1]), joinLines(lines[c1:c2]), joinLines(lines[c2:]),
		}
		dir := t.TempDir()
		var aggArgs []string
		aggArgs = append(aggArgs, spec.AggArgs...)
		for i, chunk := range chunks {
			mapOut := runCmd(t, r, "", spec.MapName, spec.MapArgs, chunk)
			fn := filepath.Join(dir, "m"+string(rune('0'+i)))
			if err := os.WriteFile(fn, []byte(mapOut), 0o644); err != nil {
				t.Fatal(err)
			}
			aggArgs = append(aggArgs, fn)
		}
		got := runCmd(t, r, "", spec.AggName, aggArgs, "")
		if got != whole {
			t.Logf("%s %v: input=%q whole=%q agg=%q", name, argv, input, whole, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("%s %v: map/aggregate equation violated: %v", name, argv, err)
	}
}

func joinLines(ls []string) string {
	if len(ls) == 0 {
		return ""
	}
	return strings.Join(ls, "\n") + "\n"
}

func TestMapAggregatePairs(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"sort", nil},
		{"sort", []string{"-rn"}},
		{"sort", []string{"-u"}},
		{"uniq", nil},
		{"uniq", []string{"-c"}},
		{"wc", nil},
		{"wc", []string{"-l"}},
		{"wc", []string{"-lw"}},
		{"grep", []string{"-c", "a"}},
		{"head", []string{"-n", "3"}},
		{"tail", []string{"-n", "3"}},
		// Every spelling of the count the commands take, the aggregators
		// take: they are the commands.
		{"head", []string{"-n3"}},
		{"head", []string{"-3"}},
		{"tail", []string{"-n3"}},
		{"tail", []string{"-3"}},
		{"tac", nil},
		{"bigrams-aux", nil},
		{"pash-sort-count", nil},
		{"pash-sort-count", []string{"-t,", "-k2", "-f"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name+"_"+strings.Join(c.argv, "_"), func(t *testing.T) {
			checkPair(t, c.name, c.argv)
		})
	}
}

func TestResolveRefusals(t *testing.T) {
	stdReg := commands.Std()
	refuse := []struct {
		name string
		argv []string
	}{
		{"sort", []string{"-m"}},       // merge input is already sorted runs
		{"grep", []string{"-n", "x"}},  // global line numbers
		{"grep", []string{"x"}},        // plain grep is S, not aggregated
		{"head", []string{"-n", "+2"}}, // positional
		{"tail", []string{"-n", "+2"}}, // positional
		{"head", []string{"-c", "10"}}, // byte counts don't chunk on lines
		{"tail", []string{"-c", "10"}},
		{"tail", []string{"-n", "x"}}, // a count the command's parser rejects
		{"head", []string{"--lines=3"}},
		{"head", []string{"-n", "-2"}}, // all but the last 2: no count to take
		{"head", []string{"-n-2"}},
		{"tail", []string{"-n", "-2"}},
		{"uniq", []string{"-d"}},      // boundary semantics unimplemented
		{"uniq", []string{"-f", "1"}}, // key-skipping unimplemented
		{"awk", []string{"{print}"}},  // no aggregator for awk
	}
	for _, c := range refuse {
		inv := stdReg.Classify(c.name, c.argv)
		if _, ok := Resolve(c.name, c.argv, inv); ok {
			t.Errorf("Resolve(%s %v) succeeded, want refusal", c.name, c.argv)
		}
	}
}

func TestAggUniqBoundaryMerge(t *testing.T) {
	r := reg()
	dir := t.TempDir()
	// Chunk outputs of uniq -c with a straddling run of "x".
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("      2 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b"), []byte("      3 x\n      1 y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runCmd(t, r, dir, "pash-agg-uniq", []string{"-c", "a", "b"}, "")
	if got != "      5 x\n      1 y\n" {
		t.Errorf("boundary merge = %q", got)
	}
	// A merged count past seven digits prints as wide as it is, as
	// uniq -c prints 12,345,678 repeats of x.
	if err := os.WriteFile(filepath.Join(dir, "c"), []byte("5000000 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d"), []byte("7345678 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runCmd(t, r, dir, "pash-agg-uniq", []string{"-c", "c", "d"}, ""); got != "12345678 x\n" {
		t.Errorf("wide merge = %q, want %q", got, "12345678 x\n")
	}
	// A run across three chunks, one across an empty chunk, and plain
	// uniq, which keeps one line of each run.
	for name, body := range map[string]string{
		"e": "", "x": "      1 x\n", "p": "x\n", "q": "x\ny\n", "r": "y\nz\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-c", "a", "x", "b"}, "      6 x\n      1 y\n"},
		{[]string{"-c", "a", "e", "x"}, "      3 x\n"},
		{[]string{"p", "q", "e", "r", "r"}, "x\ny\nz\ny\nz\n"},
	} {
		if got := runCmd(t, r, dir, "pash-agg-uniq", tc.args, ""); got != tc.want {
			t.Errorf("pash-agg-uniq %v = %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestAggWcFormats(t *testing.T) {
	r := reg()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("      2      4     10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b"), []byte("      1      2      5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runCmd(t, r, dir, "pash-agg-wc", []string{"a", "b"}, "")
	// GNU wc joins its 7-wide columns with one space.
	if got != "      3       6      15\n" {
		t.Errorf("wc agg = %q", got)
	}
	// Labelled, the columns are as wide as the named file's size, or 7
	// when it is not a regular file.
	for label, want := range map[string]string{"a": " 3  6 15 a\n", "/dev/null": "      3       6      15 /dev/null\n"} {
		if got := runCmd(t, r, dir, "pash-agg-wc", []string{"--label=" + label, "a", "b"}, ""); got != want {
			t.Errorf("wc agg --label=%s = %q, want %q", label, got, want)
		}
	}
}

func TestAggSum(t *testing.T) {
	r := reg()
	dir := t.TempDir()
	for i, content := range []string{"3\n", "4\n"} {
		if err := os.WriteFile(filepath.Join(dir, string(rune('a'+i))), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := runCmd(t, r, dir, "pash-agg-sum", []string{"a", "b"}, ""); got != "7\n" {
		t.Errorf("sum agg = %q", got)
	}
}

// TestCommutativeIsPermutationInvariant defines AggSpec.Commutative: a
// command is marked exactly when shuffling its input lines cannot change
// its output bytes. Every invocation Resolve marks must pass over random
// inputs and shuffles; every one it leaves unmarked must be told apart
// by some shuffle — which is why sort -s and sort -u under a key, whose
// key ties keep input order, stay unmarked, while sort -f and -d, whose
// key ties fall back to the whole line, are marked.
func TestCommutativeIsPermutationInvariant(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"sort", nil},
		{"sort", []string{"-r"}},
		{"sort", []string{"-n"}},
		{"sort", []string{"-rn"}},
		{"sort", []string{"-u"}},
		{"sort", []string{"-k2"}},
		{"sort", []string{"-k2,3n", "-t:"}},
		{"sort", []string{"-f"}},
		{"sort", []string{"-d"}},
		{"sort", []string{"-fu"}},
		{"sort", []string{"-du"}},
		{"sort", []string{"-nu"}},
		{"sort", []string{"-nru"}},
		{"sort", []string{"-u", "-k2"}},
		{"sort", []string{"-bu"}},
		{"sort", []string{"-s"}},
		{"sort", []string{"-rs"}},
		{"sort", []string{"-s", "-k2,2"}},
		{"sort", []string{"-fs"}},
		{"sort", []string{"-ns"}},
		{"sort", []string{"-b"}},
		{"sort", []string{"-ru"}},
		{"wc", nil},
		{"wc", []string{"-l"}},
		{"wc", []string{"-lw"}},
		{"grep", []string{"-c", "a"}},
		{"grep", []string{"-vc", "a"}},
		{"uniq", nil},
		{"uniq", []string{"-c"}},
		{"head", []string{"-n", "3"}},
		{"tail", []string{"-n", "3"}},
		{"tac", nil},
		{"bigrams-aux", nil},
		{"pash-sort-count", nil},
		{"pash-sort-count", []string{"-k2"}},
		{"pash-sort-count", []string{"-fr"}},
	}
	words := []string{"apple", "Apple", "APPLE", "a-b", "ab", "a b", "x:2:b", "x:10:a", "7", "07", "7.0", "kiwi", "", " kiwi"}
	r := reg()
	stdReg := commands.Std()
	for _, c := range cases {
		spec, ok := Resolve(c.name, c.argv, stdReg.Classify(c.name, c.argv))
		if !ok {
			t.Fatalf("no aggregator for %s %v", c.name, c.argv)
		}
		rng := rand.New(rand.NewSource(7))
		invariant := true
		for trial := 0; trial < 200 && invariant; trial++ {
			lines := make([]string, 2+rng.Intn(12))
			for i := range lines {
				lines[i] = words[rng.Intn(len(words))]
			}
			want := runCmd(t, r, "", c.name, c.argv, joinLines(lines))
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			invariant = runCmd(t, r, "", c.name, c.argv, joinLines(lines)) == want
		}
		if spec.Commutative != invariant {
			t.Errorf("%s %v: Commutative = %v, but permutation invariance is %v",
				c.name, c.argv, spec.Commutative, invariant)
		}
	}
}
