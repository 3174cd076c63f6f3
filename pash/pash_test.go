package pash

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hostcheck"
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
	if err := s.Register(CommandSpec{Name: "double", Run: double, Annotation: "double { | _ => (S, [stdin], [stdout]) }"}); err != nil {
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
	if code, err := s2.Run(context.Background(), "double", strings.NewReader("x\n"), &out2, io.Discard); err != nil || code != 127 {
		t.Errorf("custom command leaked into a fresh session: code %d, err %v, want 127 (not found)", code, err)
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

// TestAwkRefusedByName: awk runs only the subset its doc comment
// states. Each program in the table is valid POSIX awk outside it, and
// fails before reading input, with stderr naming the construct, at
// widths 1 and 4 — writing no file.
func TestAwkRefusedByName(t *testing.T) {
	table, err := os.ReadFile("../internal/commands/testdata/awk-refused.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		if strings.HasPrefix(row, "#") {
			continue
		}
		cols := strings.Split(row, "\t")
		name, script := cols[0], "awk '"+strings.Join(cols[1:], "' '")+"' f"
		for _, width := range []int{1, 4} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "f"), []byte("a b\nc d\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewSession(DefaultOptions(width))
			s.Dir = dir
			var out, errOut bytes.Buffer
			code, err := s.Run(context.Background(), script, strings.NewReader(""), &out, &errOut)
			if code == 0 && err == nil || out.Len() > 0 || !strings.Contains(errOut.String(), name) {
				t.Errorf("%s at width %d: exit %d, %v, stdout %q, stderr %q; want a failure naming %s",
					script, width, code, err, out.String(), errOut.String(), name)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 1 {
				t.Errorf("%s at width %d: left %d files in its directory", script, width, len(ents))
			}
		}
	}
}

// hostRow is one script of a host table, run by matchesHost.
type hostRow struct {
	script string
	input  string   // the hostInputs text on stdin, and in f when the script reads f
	files  []string // hostInputs texts written into the directory under their names
	widths []int    // run beyond widths 1, 2 and 4
}

// hostRows is a host table: the rows of one TestXxxMatchesHost test.
type hostRows []hostRow

// add appends one row per script, each a copy of row.
func (rows *hostRows) add(row hostRow, scripts ...string) {
	for _, script := range scripts {
		row.script = script
		*rows = append(*rows, row)
	}
}

// run is the host oracle's one driver. It runs every row through
// matchesHost, in parallel, as a subtest named by the row's input (or
// files, joined by +) that holds one named by its script.
func (rows hostRows) run(t *testing.T) {
	t.Parallel()
	inputs := hostInputs()
	for _, row := range rows {
		for _, name := range append([]string{row.input}, row.files...) {
			if len(inputs[name]) <= 1<<20 && !slices.Contains(smallInputs, name) {
				t.Fatalf("input %s is %d bytes, want over 1 MiB", name, len(inputs[name]))
			}
		}
		label := row.input
		if row.files != nil {
			label = strings.Join(row.files, "+")
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			t.Run(row.script, func(t *testing.T) { matchesHost(t, row, inputs) })
		})
	}
}

// statusAtWidth1 are the rows held to the host's exit status at width 1
// only. A wider plan exits with its final merge's status, 0 (ROADMAP
// item 7), where the host's grep, which selects nothing, exits 1, and
// the host's xargs, which cannot run its command, exits 127; and with
// 2 where a split cannot open its input, where the host's cat exits 1.
var statusAtWidth1 = map[string]bool{
	`grep -i -x 'water'`: true, `grep -F -i -w é`: true,
	"xargs -n 1 nosuch": true, "xargs -L 1 nosuch": true, "xargs -I{} nosuch {}": true,
	"cat nosuchfile": true,
}

// The host tests below are the host oracle: every row prints the bytes
// sh prints for it under LC_ALL=C, and exits alike, at every width.

// TestSortTieRulesMatchHost: -nu and -nru keep the first of each run of
// equal keys in input order, -u -k2,2 and -s -k2,2 do the same for a
// field, -f falls back to the whole line, -cu reports equal neighbours,
// and a later -k key breaks an earlier one's ties.
func TestSortTieRulesMatchHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{input: "ints", widths: []int{8}}, "sort -nu")
	rows.add(hostRow{input: "tie-text", widths: []int{8}}, "sort -u -k2,2", "sort -f", "sort -s -k2,2")
	rows.add(hostRow{input: "numbered", widths: []int{8}}, "sort -nru")
	rows.add(hostRow{input: "sorted-ints", widths: []int{8}}, "sort -cu")
	rows.add(hostRow{input: "pairs", widths: []int{8}}, "sort -k1,1n -k2,2n")
	rows.run(t)
}

// TestSortLimitMatchesHost: a sort read by head -n K, which the planner
// limits to its first K lines, under every order.
func TestSortLimitMatchesHost(t *testing.T) {
	var rows hostRows
	for _, k := range []string{"1", "7", "3000"} {
		head := " | head -n " + k
		rows.add(hostRow{input: "counts"}, "sort"+head, "sort -r"+head, "sort -n"+head, "sort -rn"+head)
		rows.add(hostRow{input: "limit-text"}, "sort -f"+head, "sort -k2"+head, "sort -s -k1,1"+head, "sort -u"+head)
		rows.add(hostRow{input: "colons"}, "sort -t: -k2n"+head)
	}
	rows.run(t)
}

// TestPasteStdinMatchesHost: a paste that names stdin more than once
// reads the one stream alternately, over an odd number of lines.
func TestPasteStdinMatchesHost(t *testing.T) {
	if n := strings.Count(hostInputs()["paste"], "\n"); n%2 == 0 {
		t.Fatalf("paste input has %d lines, want an odd number", n)
	}
	var rows hostRows
	rows.add(hostRow{input: "paste"}, "cat | paste - -", "cat | paste - - -", "cat | paste -d, - -")
	rows.run(t)
}

// TestWcFileNameMatchesHost: wc over one file prints its name through
// every level of the aggregation tree.
func TestWcFileNameMatchesHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{files: []string{"t"}, widths: []int{8, 16}}, "wc t", "wc -l t", "wc -c t", "wc -lw t")
	rows.run(t)
}

// TestWcFilesMatchHost: wc over several files, one of them named twice,
// pads to the digits of their total size.
func TestWcFilesMatchHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{files: []string{"w1", "w2"}},
		"wc -l w1 w2", "wc w1 w2", "wc -c w1 w2 w1", "wc -lw w2 w1", "wc -m w1 w1")
	rows.run(t)
}

// TestLiteralKernelsMatchHost: the literal kernels — grep -i through the
// ASCII fold, a tr handed to the grep after it, sed's plain replacement —
// among them the benchmark's stateless chain and its two streaming
// scripts, also over an unterminated last line (case-7); and grep -o
// prints each leftmost-longest match of any pattern, and -w only whole
// words, two of them adjacent too.
func TestLiteralKernelsMatchHost(t *testing.T) {
	var rows hostRows
	for _, input := range []string{"case-44", "case-7"} {
		rows.add(hostRow{input: input},
			`tr A-Z a-z | grep water | cut -d ' ' -f1-3 | sed 's/water/WATER/'`,
			`tr A-Z a-z | grep water | cut -d ' ' -f1 | sort -u`,
			`tr A-Z a-z | grep water | cut -d ' ' -f1-3`,
			`tr a-z A-Z | grep WATER`,
			`tr '[:upper:]' '[:lower:]' | grep 'the '`,
			`tr -c 'a-z\n' ' ' | grep water`,
			`tr A-Z a-z | grep -v water | sed 's/the/THE/g'`,
			`grep -i water`,
			`grep -i WaTeR | sed 's/water/x/'`,
			`grep -i -v water`,
			`grep -i -c water`,
			`grep -i 'é'`,
			`grep -i -e café -e glyph`,
			`grep -i -x 'water'`,
			`grep -i 'caf.'`,
			`grep -F -w the`,
			`grep -F -o th`,
			`grep -F -w -e 'the' -e 'a.b'`,
			`grep -F -i -w é`,
			`grep -F -i -w café`,
			`grep -F -i -o café`)
	}
	rows.add(hostRow{input: "words"}, "grep -o -w the", "grep -F -o -w the", "grep -o -e th -e en", "grep -o -e th -e the")
	rows.run(t)
}

// TestHeadTailAllButMatchesHost: head with a count spelled -N prints all
// but the last N lines or bytes, and tail -n -N is tail -n N.
func TestHeadTailAllButMatchesHost(t *testing.T) {
	var rows hostRows
	for _, input := range []string{"seven", "case-45"} {
		rows.add(hostRow{input: input},
			"head -n -2", "tail -n -2", "head -c -3", "head -n -0", "head -c -0", "tail -c -3",
			"head -n -20000", "head -n -2 f", "tail -n -2 f", "head -c -3 f", "cat f | head -n -2")
	}
	rows.run(t)
}

// TestSortCountMatchesHost: sort | uniq -c under a total order runs as
// the count stage: the word-frequency script, sort's orders, a head
// behind the pair, and on the unique-heavy input the stage's fallback.
// The forms the rule refuses print the host's bytes too, and uniq merges
// its runs across chunk boundaries.
func TestSortCountMatchesHost(t *testing.T) {
	counted := []string{
		`tr A-Z a-z | sort | uniq -c | sort -rn`,
		`cat f | tr A-Z a-z | sort | uniq -c | sort -rn`,
		`sort | uniq -c`,
		`sort -r f | uniq -c`,
		`sort -n | uniq -c`,
		`sort -f f | uniq -c`,
		`sort -k2 | uniq -c`,
		`sort -t, -k2 f | uniq -c`,
		`cat f | sort -rn | uniq -c | head -n 5`,
	}
	refused := []string{
		`sort -s -k1 | uniq -c`,
		`sort -s -k2 f | uniq -c`,
		`sort -u | uniq -c`,
		`sort f | uniq -c -i`,
		`sort | uniq -c -f1`,
		`sort f | uniq`,
	}
	var rows hostRows
	for _, input := range []string{"duplicate-heavy", "unique-heavy", "empty"} {
		rows.add(hostRow{input: input}, counted...)
		rows.add(hostRow{input: input}, refused...)
	}
	// The unterminated input is the duplicate-heavy one less a byte; the
	// rows the rule refuses run sort and uniq as before.
	rows.add(hostRow{input: "unterminated"}, counted...)
	rows.add(hostRow{input: "runs"}, "uniq -c", "uniq", "cat f | uniq -c")
	rows.run(t)
}

// TestSortRankMatchesHost: `sort | uniq -c | sort -n`, in each spelling
// of -n and -rn and under head -n K, is the count-and-rank stage, from a
// pipe and from a file: on many equal counts, where the last resort
// orders the lines, an unterminated last line, blank lines, lines longer
// than a block, and the unique-heavy input, on which the stage's table
// closes. The forms the rule refuses print the host's bytes too.
func TestSortRankMatchesHost(t *testing.T) {
	var ranked []string
	for _, rank := range []string{"sort -n", "sort -rn", "sort -nr", "sort -r -n"} {
		ranked = append(ranked, "sort | uniq -c | "+rank, "sort f | uniq -c | "+rank)
		for _, k := range []string{"1", "5", "100"} {
			ranked = append(ranked, "sort | uniq -c | "+rank+" | head -n "+k)
		}
	}
	ranked = append(ranked, "sort -f | uniq -c | sort -rn", "cat f | sort -f | uniq -c | sort -n | head -n 5")
	refused := []string{
		"sort | uniq -c | sort -rns",
		"sort f | uniq -c | sort -rnu",
		"sort | uniq -c | sort -k1,1nr",
		"sort | uniq -c | sort -t' ' -rn",
		"sort f | uniq -c -i | sort -rn | head -n 5",
	}
	var rows hostRows
	for _, input := range []string{"duplicate-heavy", "unterminated", "ties", "unique-heavy"} {
		rows.add(hostRow{input: input}, ranked...)
	}
	for _, input := range []string{"duplicate-heavy", "ties"} {
		rows.add(hostRow{input: input}, refused...)
	}
	rows.add(hostRow{input: "empty"}, "sort | uniq -c | sort -rn", "sort f | uniq -c | sort -n | head -n 5")
	rows.add(hostRow{input: "duplicate-heavy", widths: []int{8}},
		"tr A-Z a-z | sort | uniq -c | sort -rn", "cat f | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 20")
	rows.add(hostRow{input: "ties", widths: []int{8}}, "sort | uniq -c | sort -n | head -n 100")
	rows.run(t)
}

// TestWcPadsLikeHost: wc over one file pads its columns to the digits of
// the file's size, a column it does not print (-lw) included; over stdin
// or a device it pads to 7.
func TestWcPadsLikeHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{files: []string{"s", "m"}},
		"wc s", "wc -lw s", "cat s | wc", "wc -l s", "wc m", "wc -lw m", "cat m | wc", "wc -l m",
		"wc /dev/null", "wc -lw /dev/null", "wc s /dev/null")
	rows.run(t)
}

// TestXargsUnrunnableMatchesHost: a command xargs cannot run stops
// xargs, which exits 127 having printed nothing.
func TestXargsUnrunnableMatchesHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{input: "seven"}, "xargs nosuch", "xargs -n 1 nosuch", "xargs -L 1 nosuch", "xargs -I{} nosuch {}")
	rows.run(t)
}

// TestMissingInputMatchesHost: a missing input file, an operand or a
// `<` redirect, fails its command, which reports it, and the script goes
// on: grep and sort exit 2, cat 1, a redirect 2. Wider, a split reads
// the file, and the region runs nothing and exits 2, so every row prints
// the host's bytes and `cat nosuchfile || …` holds cat's non-zero status
// at every width; a framed replica that cannot open its operand exits
// with its command's status.
func TestMissingInputMatchesHost(t *testing.T) {
	var rows hostRows
	rows.add(hostRow{input: ""},
		"sort nosuchfile; echo after", "sort nosuchfile", "grep a nosuchfile; echo $?",
		"cat nosuchfile", "cat nosuchfile || echo recovered",
		"cat < nosuchfile; echo $?", "sort < nosuchfile || echo failed", "wc -l < nosuchfile; echo $?")
	rows.add(hostRow{input: "seven"}, "sort -u | comm -23 - nosuchfile; echo $?")
	rows.run(t)
}

// matchesHost runs row's script through sessions at exactly each of its
// widths, as the pash binary plans an unsized pipe, in a directory that
// holds its files, with its input on the pipe; a script that reads the
// file f, which holds the input, runs with stdin empty too. Every run
// must print the bytes sh prints for the script under LC_ALL=C and exit
// with its status.
func matchesHost(t *testing.T, row hostRow, inputs map[string]string) {
	dir := t.TempDir()
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range row.files {
		write(name, inputs[name])
	}
	legs := []string{inputs[row.input]}
	if slices.Contains(strings.Fields(row.script), "f") {
		write("f", legs[0])
		legs = append(legs, "")
	}
	host := hostcheck.Run(t, "sh", dir, row.script, legs[0])
	for _, width := range append([]int{1, 2, 4}, row.widths...) {
		for i, stdin := range legs {
			s := NewSession(DefaultOptions(width))
			s.Dir = dir
			var out bytes.Buffer
			pipe := struct{ io.Reader }{strings.NewReader(stdin)} // no size to plan from
			code, st, err := s.RunStats(context.Background(), row.script, pipe, &out, io.Discard)
			statusHeld := width == 1 || !statusAtWidth1[row.script]
			if got := out.String(); err != nil || statusHeld && code != host.Code || got != host.Stdout {
				t.Errorf("at width %d (%v, stdin empty %v): exit %d (host %d), err %v, %s",
					width, st.Widths, i == 1, code, host.Code, err, hostcheck.Diff(got, host.Stdout))
			}
		}
	}
}

// smallInputs are the host tables' inputs that may be 1 MiB or less.
var smallInputs = []string{"", "empty", "seven", "s", "m", "w1", "w2"}

// hostInputs are the texts of the host tables by name, built once and
// only read.
var hostInputs = sync.OnceValue(func() map[string]string {
	in := countInputs()
	in[""] = ""

	// sort's tie rules: numbers with leading zeros, pairs of numbers, and
	// words with a line in eight capitalised and numbered.
	rng := rand.New(rand.NewSource(33))
	var ints, numbered, pairs strings.Builder
	for ints.Len() < 1200<<10 {
		fmt.Fprintf(&ints, "%s%d\n", strings.Repeat("0", rng.Intn(3)), rng.Intn(1000))
	}
	for pairs.Len() < 1200<<10 {
		fmt.Fprintf(&pairs, "%d %d\n", rng.Intn(50), rng.Intn(1000))
	}
	text := capitalised(33)
	for i, line := range strings.SplitAfter(text[:len(text)-1], "\n") {
		fmt.Fprintf(&numbered, "%d %s", i%100, line)
	}
	numbered.WriteByte('\n')
	sortedInts := strings.SplitAfter(ints.String(), "\n")
	slices.Sort(sortedInts)
	in["ints"], in["pairs"], in["tie-text"], in["numbered"] = ints.String(), pairs.String(), text, numbered.String()
	in["sorted-ints"] = strings.Join(sortedInts, "")

	// sort | head -n K: uniq -c counts, most of them equal, and
	// colon-separated numbers.
	rng = rand.New(rand.NewSource(44))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	var counts, colons strings.Builder
	for counts.Len() < 1200<<10 {
		fmt.Fprintf(&counts, "%7d w%d\n", 1+zipf.Uint64()%40, rng.Intn(3000))
	}
	for colons.Len() < 1200<<10 {
		fmt.Fprintf(&colons, "k%d:%d:%d\n", rng.Intn(9), rng.Intn(500), rng.Intn(10))
	}
	in["counts"], in["colons"], in["limit-text"] = counts.String(), colons.String(), capitalised(44)

	var seq strings.Builder
	for i := 1; i <= 12345; i++ {
		fmt.Fprintf(&seq, "%d\n", i)
	}
	in["paste"] = paper.Text(50_001, 35) // an odd number of lines
	in["t"] = paper.Text(150_000, 36)
	in["w1"], in["w2"] = "a\nb\n", seq.String()
	in["s"], in["m"] = "the end\nother\nbathe\n", paper.Text(12_000, 37)
	in["case-44"], in["case-7"] = caseText(44), strings.TrimSuffix(caseText(7), "\n")
	in["seven"], in["case-45"] = "1\n2\n3\n4\n5\n6\n7\n", caseText(45)

	// grep -o and -w: one line in five is "the" next to itself, at a
	// line's start or end, or inside a word.
	lines := strings.SplitAfter(caseText(47), "\n")
	for i := 0; i < len(lines); i += 5 {
		lines[i] = []string{"the the\n", "the,the\n", "bathe other\n", "then the\n", "en the_the then\n"}[i/5%5]
	}
	in["words"] = strings.Join(lines, "")

	// uniq: the duplicate-heavy lines in order, so that runs of equal
	// lines straddle the chunks' boundaries.
	runs := strings.SplitAfter(in["duplicate-heavy"], "\n")
	slices.Sort(runs)
	in["runs"] = strings.Join(runs, "")
	return in
})

// capitalised is over 1 MiB of Zipf text with one line in eight
// capitalised, so that sort -f has case to fold.
func capitalised(seed int64) string {
	text := paper.Text(40_000, seed)
	lines := strings.SplitAfter(text[:len(text)-1], "\n")
	for i := 0; i < len(lines); i += 8 {
		lines[i] = strings.ToUpper(lines[i][:1]) + lines[i][1:]
	}
	return strings.Join(lines, "") + "\n"
}

// caseText is over 1 MiB of Zipf text with one line in eight upper-cased,
// one word in six capitalised, and café in both cases now and then.
func caseText(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	lines := strings.SplitAfter(paper.Text(40_000, seed), "\n")
	for i, line := range lines {
		words := strings.Split(line, " ")
		for j, w := range words {
			switch rng.Intn(48) {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				words[j] = strings.ToUpper(w[:1]) + w[1:]
			case 8:
				words[j] = "café"
			case 9:
				words[j] = "CAFÉ"
			}
		}
		lines[i] = strings.Join(words, " ")
		if i%8 == 3 {
			lines[i] = strings.ToUpper(lines[i])
		}
	}
	return strings.Join(lines, "")
}

// countInputs are the count stage's adversarial inputs, each over 1 MiB
// but the empty one: a duplicate-heavy stream of short lines with
// numbers, separators, case, high bytes, blank lines and three copies of
// a line longer than a 64 KiB block; the same without its final newline;
// a unique-heavy one, long enough for the stage's table to close, so
// that the rest is sorted as count-1 records; one whose lines all share
// one of four counts, in shuffled order; and nothing.
func countInputs() map[string]string {
	rng := rand.New(rand.NewSource(46))
	words := strings.Fields(caseText(46))
	long := strings.Repeat("long line ", 7<<10)
	var dup, unique strings.Builder
	for dup.Len() < 1<<20 {
		switch n := rng.Intn(100); {
		case n < 60:
			dup.WriteString(words[rng.Intn(len(words))])
		case n < 75:
			dup.WriteString(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))])
		case n < 85:
			fmt.Fprintf(&dup, "%0*d,%s", rng.Intn(3), rng.Intn(20), words[rng.Intn(50)])
		case n < 90:
			dup.WriteString([]string{"\xff", "\xfe b", "é", "É", " x", "x ", "\t"}[rng.Intn(7)])
		case n < 99: // a blank line
		default:
			if rng.Intn(300) == 0 {
				dup.WriteString(long)
			}
		}
		dup.WriteByte('\n')
	}
	dup.WriteString(long + "\n" + long + "\n" + long + "\n")
	// About 84,000 lines: the table first judges a window at line 65,536.
	for unique.Len() < 1<<20+1<<18 {
		fmt.Fprintf(&unique, "%d,%x %s\n", rng.Intn(80000), rng.Intn(1<<20), words[rng.Intn(len(words))])
	}
	var ties []string
	for w := 0; len(ties) < 150_000; w++ {
		for range 1 + w%4 {
			ties = append(ties, fmt.Sprintf("%s %d\n", words[w%len(words)], w))
		}
	}
	rng.Shuffle(len(ties), func(i, j int) { ties[i], ties[j] = ties[j], ties[i] })
	return map[string]string{
		"ties":            strings.Join(ties, ""),
		"duplicate-heavy": dup.String(),
		"unterminated":    strings.TrimSuffix(dup.String(), "\n"),
		"unique-heavy":    unique.String(),
		"empty":           "",
	}
}
