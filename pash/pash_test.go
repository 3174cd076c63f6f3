package pash

import (
	"bytes"
	"context"
	"errors"
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
// -s -k2,2 do the same for a field, -f falls back to the whole line,
// -cu reports equal neighbours, and a later -k key breaks an earlier
// one's ties.
func TestSortTieRulesMatchHost(t *testing.T) {
	host, err := exec.LookPath("sort")
	if err != nil {
		t.Skip("no host sort")
	}
	rng := rand.New(rand.NewSource(33))
	var ints, numbered, pairs strings.Builder
	for ints.Len() < 1200<<10 {
		fmt.Fprintf(&ints, "%s%d\n", strings.Repeat("0", rng.Intn(3)), rng.Intn(1000))
	}
	for pairs.Len() < 1200<<10 {
		fmt.Fprintf(&pairs, "%d %d\n", rng.Intn(50), rng.Intn(1000))
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
		{[]string{"-k1,1n", "-k2,2n"}, pairs.String()},
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

// TestSortLimitMatchesHost checks that a sort read by head -n K, which
// the planner limits to its first K lines, prints what the host's sort |
// head prints under LC_ALL=C, at widths 1, 2 and 4 through a session
// that plans like the pash binary (input from a pipe). Every input is
// over 1 MiB: uniq -c counts, most of them equal, for the orders without
// a key and -n; words with one line in eight capitalised for -f, -k2,
// -s -k1,1 and -u; colon-separated numbers for -t: -k2n.
func TestSortLimitMatchesHost(t *testing.T) {
	host, err := exec.LookPath("sort")
	if err != nil {
		t.Skip("no host sort")
	}
	rng := rand.New(rand.NewSource(44))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	var counts, colons strings.Builder
	for counts.Len() < 1200<<10 {
		fmt.Fprintf(&counts, "%7d w%d\n", 1+zipf.Uint64()%40, rng.Intn(3000))
	}
	for colons.Len() < 1200<<10 {
		fmt.Fprintf(&colons, "k%d:%d:%d\n", rng.Intn(9), rng.Intn(500), rng.Intn(10))
	}
	text := paper.Text(40_000, 44)
	lines := strings.SplitAfter(text[:len(text)-1], "\n")
	for i := 0; i < len(lines); i += 8 {
		lines[i] = strings.ToUpper(lines[i][:1]) + lines[i][1:]
	}
	text = strings.Join(lines, "") + "\n"
	for _, tc := range []struct {
		argv  []string
		input string
	}{
		{nil, counts.String()},
		{[]string{"-r"}, counts.String()},
		{[]string{"-n"}, counts.String()},
		{[]string{"-rn"}, counts.String()},
		{[]string{"-f"}, text},
		{[]string{"-k2"}, text},
		{[]string{"-t:", "-k2n"}, colons.String()},
		{[]string{"-s", "-k1,1"}, text},
		{[]string{"-u"}, text},
	} {
		if len(tc.input) < 1<<20 {
			t.Fatalf("sort %v: input is %d bytes, want over 1 MiB", tc.argv, len(tc.input))
		}
		for _, k := range []int{1, 7, 3000} {
			cmd := exec.Command("sh", "-c", fmt.Sprintf(`"$0" "$@" | head -n %d`, k), host)
			cmd.Args = append(cmd.Args, tc.argv...)
			cmd.Env = append(os.Environ(), "LC_ALL=C")
			cmd.Stdin = strings.NewReader(tc.input)
			want, err := cmd.Output()
			if err != nil {
				t.Fatal(err)
			}
			script := fmt.Sprintf("sort %s | head -n %d", strings.Join(tc.argv, " "), k)
			for _, width := range []int{1, 2, 4} {
				s := NewSession(Options{Width: width, Preset: Planned})
				var out bytes.Buffer
				pipe := struct{ io.Reader }{strings.NewReader(tc.input)} // no size to plan from
				code, st, err := s.RunStats(context.Background(), script, pipe, &out, io.Discard)
				if err != nil || code != 0 || out.String() != string(want) {
					t.Errorf("%s at width %d (%v): exit %d, err %v, %d lines differ from the host's %d",
						script, width, st.Widths, code, err, strings.Count(out.String(), "\n"), bytes.Count(want, []byte("\n")))
				}
			}
		}
	}
}

// hostOutput runs a host command in dir over stdin under LC_ALL=C,
// skipping the test when the host has no such command.
func hostOutput(t *testing.T, dir, stdin, name string, argv ...string) string {
	t.Helper()
	host, err := exec.LookPath(name)
	if err != nil {
		t.Skipf("no host %s", name)
	}
	cmd := exec.Command(host, argv...)
	cmd.Dir, cmd.Stdin = dir, strings.NewReader(stdin)
	cmd.Env = append(os.Environ(), "LC_ALL=C")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("host %s %v: %v", name, argv, err)
	}
	return string(out)
}

// runAt runs a script at exactly the given width, in dir, over stdin.
func runAt(t *testing.T, width int, dir, script, stdin string) string {
	t.Helper()
	s := NewSession(DefaultOptions(width))
	s.Dir = dir
	var out bytes.Buffer
	if code, err := s.Run(context.Background(), script, strings.NewReader(stdin), &out, io.Discard); err != nil || code != 0 {
		t.Fatalf("%s at width %d: exit %d, %v", script, width, code, err)
	}
	return out.String()
}

// TestPasteStdinMatchesHost: a paste that names stdin more than once
// reads the one stream alternately, at every width.
func TestPasteStdinMatchesHost(t *testing.T) {
	text := paper.Text(50_001, 35) // an odd number of lines
	if len(text) < 1<<20 || strings.Count(text, "\n")%2 == 0 {
		t.Fatalf("input: %d bytes, %d lines; want over 1 MiB and odd", len(text), strings.Count(text, "\n"))
	}
	for _, argv := range [][]string{{"-", "-"}, {"-", "-", "-"}, {"-d,", "-", "-"}} {
		want := hostOutput(t, "", text, "paste", argv...)
		script := "cat | paste " + strings.Join(argv, " ")
		for _, width := range []int{1, 4} {
			if got := runAt(t, width, "", script, text); got != want {
				t.Errorf("%s at width %d: %d bytes, host %d", script, width, len(got), len(want))
			}
		}
	}
}

// TestWcFileNameMatchesHost: wc over one file operand prints its name
// at every width, through every level of the aggregation tree.
func TestWcFileNameMatchesHost(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t"), []byte(paper.Text(150_000, 36)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{{"t"}, {"-l", "t"}, {"-c", "t"}, {"-lw", "t"}} {
		want := hostOutput(t, dir, "", "wc", argv...)
		script := "wc " + strings.Join(argv, " ")
		for _, width := range []int{1, 2, 4, 8, 16} {
			if got := runAt(t, width, dir, script, ""); got != want {
				t.Errorf("%s at width %d: %q, host %q", script, width, got, want)
			}
		}
	}
}

// TestWcFilesMatchHost checks wc over several files against the host's:
// GNU pads every column to the digits of the files' total size, a
// single-column count included.
func TestWcFilesMatchHost(t *testing.T) {
	dir := t.TempDir()
	var seq strings.Builder
	for i := 1; i <= 12345; i++ {
		fmt.Fprintf(&seq, "%d\n", i)
	}
	for name, body := range map[string]string{"w1": "a\nb\n", "w2": seq.String()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, argv := range [][]string{{"-l", "w1", "w2"}, {"w1", "w2"}, {"-c", "w1", "w2", "w1"}, {"-lw", "w2", "w1"}, {"-m", "w1", "w1"}} {
		want := hostOutput(t, dir, "", "wc", argv...)
		script := "wc " + strings.Join(argv, " ")
		for _, width := range []int{1, 4} {
			if got := runAt(t, width, dir, script, ""); got != want {
				t.Errorf("%s at width %d: %q, host %q", script, width, got, want)
			}
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

// matchesHost runs script through sessions that plan like the pash
// binary, at widths 1, 2 and 4, with input from a pipe and, when file is
// set, from the file named f in the session's directory, and requires
// the bytes sh prints for it under LC_ALL=C, and at width 1 its exit
// status. A wider plan's status is its final merge's: a grep that selects
// nothing behind a split exits 0, where the host's exits 1.
func matchesHost(t *testing.T, script, input string, file bool) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", "-c", script)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LC_ALL=C")
	cmd.Stdin = strings.NewReader(input)
	want, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("host %q: %v", script, err)
	}
	wantCode := cmd.ProcessState.ExitCode()
	for _, width := range []int{1, 2, 4} {
		for _, fromFile := range []bool{false, true} {
			if fromFile && !file {
				continue
			}
			s := NewSession(Options{Width: width, Preset: Planned})
			s.Dir = dir
			var stdin io.Reader = struct{ io.Reader }{strings.NewReader(input)} // no size to plan from
			if fromFile {
				stdin = strings.NewReader("")
			}
			var out bytes.Buffer
			code, st, err := s.RunStats(context.Background(), script, stdin, &out, io.Discard)
			if err != nil || width == 1 && code != wantCode || out.String() != string(want) {
				t.Errorf("%q at width %d (%v, file %v): exit %d (host %d), err %v, %d bytes, host %d; first difference at byte %d",
					script, width, st.Widths, fromFile, code, wantCode, err, out.Len(), len(want), firstDiff(out.Bytes(), want))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
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

// TestLiteralKernelsMatchHost: the literal kernels — grep -i through the
// ASCII fold, a tr handed to the grep after it, sed's plain replacement —
// print what the host prints under LC_ALL=C. Among the scripts are the
// benchmark's stateless chain and its two streaming scripts, and the
// same chains with an unterminated last line (seed 7).
func TestLiteralKernelsMatchHost(t *testing.T) {
	for _, tool := range []string{"tr", "grep", "cut", "sed", "sort"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no host %s", tool)
		}
	}
	for _, input := range []string{caseText(44), strings.TrimSuffix(caseText(7), "\n")} {
		if len(input) < 1<<20 {
			t.Fatalf("input is %d bytes, want over 1 MiB", len(input))
		}
		for _, script := range []string{
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
			`grep -F -i -o café`,
		} {
			matchesHost(t, script, input, false)
		}
	}
}

// TestHeadTailAllButMatchesHost: head with a count spelled -N prints all
// but the last N lines or bytes, and tail -n -N is tail -n N, read from a
// pipe or from a file, on a cat's output too.
func TestHeadTailAllButMatchesHost(t *testing.T) {
	for _, tool := range []string{"head", "tail"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no host %s", tool)
		}
	}
	big := caseText(45)
	for _, input := range []string{"1\n2\n3\n4\n5\n6\n7\n", big} {
		for _, script := range []string{
			"head -n -2", "tail -n -2", "head -c -3", "head -n -0", "head -c -0", "tail -c -3",
			"head -n -20000", "head -n -2 f", "tail -n -2 f", "head -c -3 f", "cat f | head -n -2",
		} {
			matchesHost(t, script, input, strings.Contains(script, " f"))
		}
	}
}

// countInputs are the count stage's adversarial inputs, each over 1 MiB
// but the empty one: a duplicate-heavy stream of short lines with
// numbers, separators, case, high bytes, blank lines and three copies of
// a line longer than a 64 KiB block; the same without its final newline;
// a unique-heavy one, long enough for the stage's table to close, so
// that the rest is sorted as count-1 records; and nothing.
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
	return map[string]string{
		"duplicate-heavy": dup.String(),
		"unterminated":    strings.TrimSuffix(dup.String(), "\n"),
		"unique-heavy":    unique.String(),
		"empty":           "",
	}
}

// TestSortCountMatchesHost: sort | uniq -c under a total order runs as
// the count stage, and prints what the host prints under LC_ALL=C at
// widths 1, 2 and 4, from a pipe and from a file: the word-frequency
// script's count and sort -rn behind a stateless map, sort's orders, a
// head behind the pair, and on the unique-heavy input the stage's
// fallback. The forms the rule refuses — sort -s under a key, sort -u,
// uniq -c with another flag, plain uniq — print the host's bytes too.
func TestSortCountMatchesHost(t *testing.T) {
	for _, tool := range []string{"tr", "sort", "uniq", "head"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no host %s", tool)
		}
	}
	rows := []struct {
		script        string
		file, refused bool
	}{
		{`tr A-Z a-z | sort | uniq -c | sort -rn`, false, false},
		{`cat f | tr A-Z a-z | sort | uniq -c | sort -rn`, true, false},
		{`sort | uniq -c`, false, false},
		{`sort -r f | uniq -c`, true, false},
		{`sort -n | uniq -c`, false, false},
		{`sort -f f | uniq -c`, true, false},
		{`sort -k2 | uniq -c`, false, false},
		{`sort -t, -k2 f | uniq -c`, true, false},
		{`cat f | sort -rn | uniq -c | head -n 5`, true, false},
		{`sort -s -k1 | uniq -c`, false, true},
		{`sort -s -k2 f | uniq -c`, true, true},
		{`sort -u | uniq -c`, false, true},
		{`sort f | uniq -c -i`, true, true},
		{`sort | uniq -c -f1`, false, true},
		{`sort f | uniq`, true, true},
	}
	for name, input := range countInputs() {
		if name != "empty" && len(input) <= 1<<20 {
			t.Fatalf("%s input is %d bytes, want over 1 MiB", name, len(input))
		}
		for _, row := range rows {
			// The unterminated input is the duplicate-heavy one less a
			// byte; the rows the rule refuses run sort and uniq as before.
			if name == "unterminated" && row.refused {
				continue
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				matchesHost(t, row.script, input, row.file)
			})
		}
	}
}

// TestWcPadsLikeHost: wc over one file pads its columns to the digits
// of the file's size, a column it does not print (-lw) included, at
// every width; over stdin, or with an operand that is not a regular
// file (a device), it pads to 7.
func TestWcPadsLikeHost(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"s": "the end\nother\nbathe\n", "m": paper.Text(12_000, 37)} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, script := range []string{
		"wc s", "wc -lw s", "cat s | wc", "wc -l s", "wc m", "wc -lw m", "cat m | wc", "wc -l m",
		"wc /dev/null", "wc -lw /dev/null", "wc s /dev/null",
	} {
		want := hostOutput(t, dir, "", "sh", "-c", script)
		for _, width := range []int{1, 2, 4} {
			if got := runAt(t, width, dir, script, ""); got != want {
				t.Errorf("%s at width %d: %q, host %q", script, width, got, want)
			}
		}
	}
}
