package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
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
		{Width: 2, Split: false, Eager: dfg.EagerFull},
		{Width: 4, Split: true, Eager: dfg.EagerFull},
		{Width: 4, Split: true, Eager: dfg.EagerNone},
		{Width: 4, Split: true, Eager: dfg.EagerBlocking, BlockingEagerBytes: 1 << 18},
		{Width: 8, Split: true, Eager: dfg.EagerFull, InputAwareSplit: true},
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

func TestUnknownCommandConservative(t *testing.T) {
	// Unknown commands abort that region with a useful error.
	_, _, err := runScriptCode(t, DefaultOptions(4), "definitely-not-a-command", "", "", nil)
	if err == nil {
		t.Error("expected error for unknown command")
	}
}

// TestProfilesOnlyUnderMeasureMode: region profiles feed the simulator's
// measuring runs and nothing else, so an ordinary run — here a
// 10k-iteration loop — accumulates none, while a measuring run records
// one per region.
func TestProfilesOnlyUnderMeasureMode(t *testing.T) {
	var items strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&items, " %d", i)
	}
	run := func(opts Options, src string) *Interp {
		in := NewInterp(NewCompiler(opts), "", nil, runtime.StdIO{Stdin: strings.NewReader("")})
		if code, err := in.RunScript(context.Background(), src); err != nil || code != 0 {
			t.Fatalf("code %d, err %v", code, err)
		}
		return in
	}
	in := run(DefaultOptions(2), "for i in"+items.String()+"; do echo $i; done")
	if in.Stats.Regions != 10000 || len(in.Profiles) != 0 {
		t.Errorf("plain run: %d regions left %d profiles, want 10000 and 0", in.Stats.Regions, len(in.Profiles))
	}
	measured := DefaultOptions(2)
	measured.MeasureMode = true
	in = run(measured, "for i in 1 2 3; do echo $i; done | wc -l")
	if len(in.Profiles) != 4 {
		t.Errorf("measuring run recorded %d profiles, want 4 (three loop bodies and the wc)", len(in.Profiles))
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
