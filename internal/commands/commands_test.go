package commands

import (
	"bytes"
	"compress/gzip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes a command from the standard registry, returning stdout.
func run(t *testing.T, name string, args []string, stdin string) string {
	t.Helper()
	out, err := runErr(t, name, args, stdin)
	if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return out
}

func runErr(t *testing.T, name string, args []string, stdin string) (string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	ctx := &Context{
		Args:   args,
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		Stderr: &errb,
	}
	err := Std().Run(name, ctx)
	return out.String(), err
}

func TestCat(t *testing.T) {
	if got := run(t, "cat", nil, "a\nb\n"); got != "a\nb\n" {
		t.Errorf("cat = %q", got)
	}
	if got := run(t, "cat", []string{"-n"}, "x\ny\n"); got != "     1\tx\n     2\ty\n" {
		t.Errorf("cat -n = %q", got)
	}
	if got := run(t, "cat", []string{"-s"}, "a\n\n\n\nb\n"); got != "a\n\nb\n" {
		t.Errorf("cat -s = %q", got)
	}
	if got := run(t, "cat", []string{"-b"}, "a\n\nb\n"); got != "     1\ta\n\n     2\tb\n" {
		t.Errorf("cat -b = %q", got)
	}
}

func TestCatFiles(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "f1"), []byte("one\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "f2"), []byte("two\n"), 0o644))
	var out bytes.Buffer
	ctx := &Context{Args: []string{"f1", "f2"}, Stdout: &out, FS: OSFS{Dir: dir}}
	if err := Std().Run("cat", ctx); err != nil {
		t.Fatal(err)
	}
	if out.String() != "one\ntwo\n" {
		t.Errorf("cat f1 f2 = %q", out.String())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestGrep(t *testing.T) {
	in := "apple\nbanana\ncherry\nApple pie\n"
	if got := run(t, "grep", []string{"an"}, in); got != "banana\n" {
		t.Errorf("grep an = %q", got)
	}
	if got := run(t, "grep", []string{"-i", "apple"}, in); got != "apple\nApple pie\n" {
		t.Errorf("grep -i = %q", got)
	}
	if got := run(t, "grep", []string{"-v", "an"}, in); got != "apple\ncherry\nApple pie\n" {
		t.Errorf("grep -v = %q", got)
	}
	if got := run(t, "grep", []string{"-c", "a"}, in); got != "2\n" {
		t.Errorf("grep -c = %q", got)
	}
	if got := run(t, "grep", []string{"-n", "cherry"}, in); got != "3:cherry\n" {
		t.Errorf("grep -n = %q", got)
	}
	if got := run(t, "grep", []string{"-iv", "999"}, "12\n999\n34\n"); got != "12\n34\n" {
		t.Errorf("grep -iv = %q", got)
	}
	if got := run(t, "grep", []string{"-o", "[0-9]+"}, "a1b22c\n"); got != "1\n22\n" {
		t.Errorf("grep -o = %q", got)
	}
	if got := run(t, "grep", []string{"-m", "2", "a"}, in); got != "apple\nbanana\n" {
		t.Errorf("grep -m 2 = %q", got)
	}
	if got := run(t, "grep", []string{"-x", "apple"}, in); got != "apple\n" {
		t.Errorf("grep -x = %q", got)
	}
	if got := run(t, "grep", []string{"-w", "pie"}, in); got != "Apple pie\n" {
		t.Errorf("grep -w = %q", got)
	}
	if got := run(t, "grep", []string{"-F", "a.b"}, "a.b\naxb\n"); got != "a.b\n" {
		t.Errorf("grep -F = %q", got)
	}
}

func TestGrepExitStatus(t *testing.T) {
	_, err := runErr(t, "grep", []string{"zzz"}, "abc\n")
	if ExitCode(err) != 1 {
		t.Errorf("grep no-match exit = %d, want 1", ExitCode(err))
	}
	out, err := runErr(t, "grep", []string{"-q", "abc"}, "abc\n")
	if err != nil || out != "" {
		t.Errorf("grep -q: out=%q err=%v", out, err)
	}
	// -L names the files with no match; as in GNU grep 3.8, the status
	// still says whether any line matched.
	if out, err = runErr(t, "grep", []string{"-L", "x"}, "abc\n"); ExitCode(err) != 1 || out != "(standard input)\n" {
		t.Errorf("grep -L, no match: out=%q exit=%d", out, ExitCode(err))
	}
	if out, err = runErr(t, "grep", []string{"-L", "b"}, "abc\n"); err != nil || out != "" {
		t.Errorf("grep -L, a match: out=%q err=%v", out, err)
	}
}

func TestTr(t *testing.T) {
	if got := run(t, "tr", []string{"a-z", "A-Z"}, "hello\n"); got != "HELLO\n" {
		t.Errorf("tr a-z A-Z = %q", got)
	}
	if got := run(t, "tr", []string{"-d", "l"}, "hello\n"); got != "heo\n" {
		t.Errorf("tr -d = %q", got)
	}
	if got := run(t, "tr", []string{"-s", " "}, "a   b  c\n"); got != "a b c\n" {
		t.Errorf("tr -s ' ' = %q", got)
	}
	// The classic spell idiom: complement+squeeze to newlines.
	if got := run(t, "tr", []string{"-cs", "A-Za-z", "\\n"}, "foo, bar! baz\n"); got != "foo\nbar\nbaz\n" {
		t.Errorf("tr -cs = %q", got)
	}
	if got := run(t, "tr", []string{"[:upper:]", "[:lower:]"}, "MiXeD\n"); got != "mixed\n" {
		t.Errorf("tr classes = %q", got)
	}
}

func TestCut(t *testing.T) {
	in := "a:b:c\nd:e:f\n"
	if got := run(t, "cut", []string{"-d:", "-f2"}, in); got != "b\ne\n" {
		t.Errorf("cut -f2 = %q", got)
	}
	if got := run(t, "cut", []string{"-d:", "-f1,3"}, in); got != "a:c\nd:f\n" {
		t.Errorf("cut -f1,3 = %q", got)
	}
	if got := run(t, "cut", []string{"-d:", "-f2-"}, in); got != "b:c\ne:f\n" {
		t.Errorf("cut -f2- = %q", got)
	}
	if got := run(t, "cut", []string{"-c", "2-3"}, "abcdef\n"); got != "bc\n" {
		t.Errorf("cut -c = %q", got)
	}
	if got := run(t, "cut", []string{"-c", "89-92"}, strings.Repeat("x", 88)+"0042zzz\n"); got != "0042\n" {
		t.Errorf("cut -c 89-92 (NOAA idiom) = %q", got)
	}
	// Line without delimiter passes through unless -s.
	if got := run(t, "cut", []string{"-d:", "-f2"}, "nodelim\n"); got != "nodelim\n" {
		t.Errorf("cut no-delim = %q", got)
	}
	if got := run(t, "cut", []string{"-d:", "-f2", "-s"}, "nodelim\n"); got != "" {
		t.Errorf("cut -s = %q", got)
	}
}

func TestSort(t *testing.T) {
	if got := run(t, "sort", nil, "b\na\nc\n"); got != "a\nb\nc\n" {
		t.Errorf("sort = %q", got)
	}
	if got := run(t, "sort", []string{"-r"}, "b\na\nc\n"); got != "c\nb\na\n" {
		t.Errorf("sort -r = %q", got)
	}
	if got := run(t, "sort", []string{"-n"}, "10\n9\n100\n"); got != "9\n10\n100\n" {
		t.Errorf("sort -n = %q", got)
	}
	if got := run(t, "sort", []string{"-rn"}, "10\n9\n100\n"); got != "100\n10\n9\n" {
		t.Errorf("sort -rn = %q", got)
	}
	if got := run(t, "sort", []string{"-u"}, "b\na\nb\n"); got != "a\nb\n" {
		t.Errorf("sort -u = %q", got)
	}
	if got := run(t, "sort", []string{"-k2", "-n"}, "x 2\ny 1\nz 10\n"); got != "y 1\nx 2\nz 10\n" {
		t.Errorf("sort -k2 -n = %q", got)
	}
	if got := run(t, "sort", []string{"-t:", "-k2"}, "a:z\nb:y\n"); got != "b:y\na:z\n" {
		t.Errorf("sort -t: -k2 = %q", got)
	}
	if got := run(t, "sort", []string{"-nr", "-k2"}, "a 1\nb 3\nc 2\n"); got != "b 3\nc 2\na 1\n" {
		t.Errorf("sort -nr -k2 = %q", got)
	}
}

func TestSortMerge(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "s1"), []byte("a\nc\ne\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "s2"), []byte("b\nd\nf\n"), 0o644))
	var out bytes.Buffer
	ctx := &Context{Args: []string{"-m", "s1", "s2"}, Stdout: &out, FS: OSFS{Dir: dir}}
	if err := Std().Run("sort", ctx); err != nil {
		t.Fatal(err)
	}
	if out.String() != "a\nb\nc\nd\ne\nf\n" {
		t.Errorf("sort -m = %q", out.String())
	}
}

func TestSortParallelMatchesSequential(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 5000; i++ {
		in.WriteString(strings.Repeat("x", i%7))
		in.WriteString("word")
		in.WriteString(string(rune('a' + i%26)))
		in.WriteByte('\n')
	}
	seq := run(t, "sort", nil, in.String())
	par := run(t, "sort", []string{"--parallel=4"}, in.String())
	if seq != par {
		t.Error("sort --parallel=4 output differs from sequential sort")
	}
}

func TestSortCheck(t *testing.T) {
	if _, err := runErr(t, "sort", []string{"-c"}, "a\nb\n"); err != nil {
		t.Errorf("sort -c on sorted input: %v", err)
	}
	_, err := runErr(t, "sort", []string{"-c"}, "b\na\n")
	if ExitCode(err) != 1 {
		t.Errorf("sort -c on unsorted input: exit=%d", ExitCode(err))
	}
}

func TestUniq(t *testing.T) {
	in := "a\na\nb\nc\nc\nc\n"
	if got := run(t, "uniq", nil, in); got != "a\nb\nc\n" {
		t.Errorf("uniq = %q", got)
	}
	if got := run(t, "uniq", []string{"-c"}, in); got != "      2 a\n      1 b\n      3 c\n" {
		t.Errorf("uniq -c = %q", got)
	}
	if got := run(t, "uniq", []string{"-d"}, in); got != "a\nc\n" {
		t.Errorf("uniq -d = %q", got)
	}
	if got := run(t, "uniq", []string{"-u"}, in); got != "b\n" {
		t.Errorf("uniq -u = %q", got)
	}
	if got := run(t, "uniq", []string{"-i"}, "A\na\n"); got != "A\n" {
		t.Errorf("uniq -i = %q", got)
	}
	if got := run(t, "uniq", []string{"-f", "1"}, "1 x\n2 x\n3 y\n"); got != "1 x\n3 y\n" {
		t.Errorf("uniq -f 1 = %q", got)
	}
	// From 10,000,000 on the count outgrows its seven columns: GNU prints
	// it whole, then the space.
	big := "b\n" + strings.Repeat("a\n", 12_345_678)
	want := "      1 b\n12345678 a\n"
	if got := run(t, "uniq", []string{"-c"}, big); got != want {
		t.Errorf("uniq -c over 12,345,678 repeats = %q, want %q", got, want)
	}
	if _, err := exec.LookPath("uniq"); err == nil {
		host := exec.Command("uniq", "-c")
		host.Env = append(os.Environ(), "LC_ALL=C")
		host.Stdin = strings.NewReader(big)
		if out, err := host.Output(); err != nil || string(out) != want {
			t.Errorf("host uniq -c = %q (%v), want %q", out, err, want)
		}
	}
}

func TestWc(t *testing.T) {
	in := "one two\nthree\n"
	if got := run(t, "wc", []string{"-l"}, in); got != "2\n" {
		t.Errorf("wc -l = %q", got)
	}
	if got := run(t, "wc", []string{"-w"}, in); got != "3\n" {
		t.Errorf("wc -w = %q", got)
	}
	if got := run(t, "wc", []string{"-c"}, in); got != "14\n" {
		t.Errorf("wc -c = %q", got)
	}
	// GNU wc joins its 7-wide columns with one space.
	if got := run(t, "wc", nil, in); got != "      2       3      14\n" {
		t.Errorf("wc = %q", got)
	}
}

func TestHead(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	if got := run(t, "head", []string{"-n", "2"}, in); got != "1\n2\n" {
		t.Errorf("head -n 2 = %q", got)
	}
	if got := run(t, "head", []string{"-n2"}, in); got != "1\n2\n" {
		t.Errorf("head -n2 = %q", got)
	}
	if got := run(t, "head", []string{"-c", "3"}, "abcdef\n"); got != "abc" {
		t.Errorf("head -c = %q", got)
	}
	if got := run(t, "head", []string{"-2"}, in); got != "1\n2\n" {
		t.Errorf("head -2 = %q", got)
	}
	big := strings.Repeat("x\n", 100)
	if got := run(t, "head", nil, big); got != strings.Repeat("x\n", 10) {
		t.Errorf("head default = %q", got)
	}
}

func TestTail(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	if got := run(t, "tail", []string{"-n", "2"}, in); got != "4\n5\n" {
		t.Errorf("tail -n 2 = %q", got)
	}
	if got := run(t, "tail", []string{"-n", "+2"}, in); got != "2\n3\n4\n5\n" {
		t.Errorf("tail -n +2 = %q", got)
	}
	if got := run(t, "tail", []string{"-c", "4"}, "abcdef"); got != "cdef" {
		t.Errorf("tail -c = %q", got)
	}
}

func TestSed(t *testing.T) {
	if got := run(t, "sed", []string{"s/a/b/"}, "aaa\n"); got != "baa\n" {
		t.Errorf("sed s/a/b/ = %q", got)
	}
	if got := run(t, "sed", []string{"s/a/b/g"}, "aaa\n"); got != "bbb\n" {
		t.Errorf("sed global = %q", got)
	}
	if got := run(t, "sed", []string{"s;^;PREFIX/;"}, "x\n"); got != "PREFIX/x\n" {
		t.Errorf("sed custom delim = %q", got)
	}
	if got := run(t, "sed", []string{"s/^/Maximum temperature for 2015 is: /"}, "42\n"); got != "Maximum temperature for 2015 is: 42\n" {
		t.Errorf("sed paper idiom = %q", got)
	}
	if got := run(t, "sed", []string{"/b/d"}, "a\nb\nc\n"); got != "a\nc\n" {
		t.Errorf("sed /b/d = %q", got)
	}
	if got := run(t, "sed", []string{"-n", "/b/p"}, "a\nb\nc\n"); got != "b\n" {
		t.Errorf("sed -n p = %q", got)
	}
	if got := run(t, "sed", []string{"2d"}, "a\nb\nc\n"); got != "a\nc\n" {
		t.Errorf("sed 2d = %q", got)
	}
	if got := run(t, "sed", []string{"y/abc/xyz/"}, "cab\n"); got != "zxy\n" {
		t.Errorf("sed y = %q", got)
	}
	if got := run(t, "sed", []string{`s/\(a*\)b/[\1]/`}, "aaab\n"); got != "[aaa]\n" {
		t.Errorf("sed groups = %q", got)
	}
	if got := run(t, "sed", []string{"s/b/[&]/"}, "abc\n"); got != "a[b]c\n" {
		t.Errorf("sed & = %q", got)
	}
	if got := run(t, "sed", []string{"-e", "s/a/1/", "-e", "s/b/2/"}, "ab\n"); got != "12\n" {
		t.Errorf("sed -e -e = %q", got)
	}
	if got := run(t, "sed", []string{"s/a/1/;s/b/2/"}, "ab\n"); got != "12\n" {
		t.Errorf("sed semicolons = %q", got)
	}
	if got := run(t, "sed", []string{"1q"}, "a\nb\nc\n"); got != "a\n" {
		t.Errorf("sed 1q = %q", got)
	}
}

func TestComm(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "f1"), []byte("a\nb\nd\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "f2"), []byte("b\nc\nd\n"), 0o644))
	runIn := func(args ...string) string {
		var out bytes.Buffer
		ctx := &Context{Args: args, Stdout: &out, FS: OSFS{Dir: dir}}
		if err := Std().Run("comm", ctx); err != nil {
			t.Fatalf("comm %v: %v", args, err)
		}
		return out.String()
	}
	if got := runIn("f1", "f2"); got != "a\n\tb\n\t\tc\nWRONG" && got != "a\n\t\tb\n\tc\n\t\td\n" {
		// Column semantics: col1 unique-to-f1, col2 unique-to-f2 (one tab),
		// col3 common (two tabs).
		want := "a\n\t\tb\n\tc\n\t\td\n"
		if got != want {
			t.Errorf("comm = %q, want %q", got, want)
		}
	}
	if got := runIn("-13", "f1", "f2"); got != "c\n" {
		t.Errorf("comm -13 = %q", got)
	}
	if got := runIn("-23", "f1", "f2"); got != "a\n" {
		t.Errorf("comm -23 = %q", got)
	}
	if got := runIn("-12", "f1", "f2"); got != "b\nd\n" {
		t.Errorf("comm -12 = %q", got)
	}
}

func TestTacRev(t *testing.T) {
	if got := run(t, "tac", nil, "1\n2\n3\n"); got != "3\n2\n1\n" {
		t.Errorf("tac = %q", got)
	}
	if got := run(t, "rev", nil, "abc\nxy\n"); got != "cba\nyx\n" {
		t.Errorf("rev = %q", got)
	}
}

func TestFold(t *testing.T) {
	if got := run(t, "fold", []string{"-w", "3"}, "abcdefg\n"); got != "abc\ndef\ng\n" {
		t.Errorf("fold = %q", got)
	}
}

func TestPaste(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "p1"), []byte("a\nb\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "p2"), []byte("1\n2\n3\n"), 0o644))
	var out bytes.Buffer
	ctx := &Context{Args: []string{"p1", "p2"}, Stdout: &out, FS: OSFS{Dir: dir}}
	if err := Std().Run("paste", ctx); err != nil {
		t.Fatal(err)
	}
	if out.String() != "a\t1\nb\t2\n\t3\n" {
		t.Errorf("paste = %q", out.String())
	}
	if got := run(t, "paste", []string{"-s", "-d", " "}, "a\nb\nc\n"); got != "a b c\n" {
		t.Errorf("paste -s = %q", got)
	}
}

func TestNl(t *testing.T) {
	if got := run(t, "nl", nil, "a\n\nb\n"); got != "     1\ta\n\n     2\tb\n" {
		t.Errorf("nl = %q", got)
	}
	if got := run(t, "nl", []string{"-ba", "-w", "2", "-s", ":"}, "a\nb\n"); got != " 1:a\n 2:b\n" {
		t.Errorf("nl -ba = %q", got)
	}
}

func TestSeqEchoPrintf(t *testing.T) {
	if got := run(t, "seq", []string{"3"}, ""); got != "1\n2\n3\n" {
		t.Errorf("seq 3 = %q", got)
	}
	if got := run(t, "seq", []string{"2", "4"}, ""); got != "2\n3\n4\n" {
		t.Errorf("seq 2 4 = %q", got)
	}
	if got := run(t, "seq", []string{"10", "-2", "6"}, ""); got != "10\n8\n6\n" {
		t.Errorf("seq desc = %q", got)
	}
	if got := run(t, "echo", []string{"a", "b"}, ""); got != "a b\n" {
		t.Errorf("echo = %q", got)
	}
	if got := run(t, "echo", []string{"-n", "x"}, ""); got != "x" {
		t.Errorf("echo -n = %q", got)
	}
}

func TestTest(t *testing.T) {
	if _, err := runErr(t, "test", []string{"a", "=", "a"}, ""); err != nil {
		t.Errorf("test = : %v", err)
	}
	if _, err := runErr(t, "test", []string{"1", "-lt", "2"}, ""); err != nil {
		t.Errorf("test -lt: %v", err)
	}
	_, err := runErr(t, "test", []string{"-z", "x"}, "")
	if ExitCode(err) != 1 {
		t.Errorf("test -z x: exit=%d", ExitCode(err))
	}
	if _, err := runErr(t, "[", []string{"a", "!=", "b", "]"}, ""); err != nil {
		t.Errorf("[ != ]: %v", err)
	}
}

func TestXargs(t *testing.T) {
	if got := run(t, "xargs", []string{"-n", "1", "echo", "item"}, "a b\nc\n"); got != "item a\nitem b\nitem c\n" {
		t.Errorf("xargs -n1 = %q", got)
	}
	if got := run(t, "xargs", []string{"echo"}, "a\nb c\n"); got != "a b c\n" {
		t.Errorf("xargs batch = %q", got)
	}
	if got := run(t, "xargs", []string{"-I", "{}", "echo", "[{}]"}, "x\ny\n"); got != "[x]\n[y]\n" {
		t.Errorf("xargs -I = %q", got)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	payload := "the quick brown fox\njumps over\n"
	var compressed bytes.Buffer
	zw := gzip.NewWriter(&compressed)
	zw.Write([]byte(payload))
	must(t, zw.Close())
	got, err := runErr(t, "gunzip", nil, compressed.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Errorf("gunzip = %q", got)
	}
}

func TestCurlSimulation(t *testing.T) {
	root := t.TempDir()
	must(t, os.MkdirAll(filepath.Join(root, "host.example", "data"), 0o755))
	must(t, os.WriteFile(filepath.Join(root, "host.example", "data", "f.txt"), []byte("remote content\n"), 0o644))
	var out bytes.Buffer
	ctx := &Context{
		Args:   []string{"-s", "http://host.example/data/f.txt"},
		Stdout: &out,
		Env:    map[string]string{"PASH_CURL_ROOT": root},
	}
	if err := Std().Run("curl", ctx); err != nil {
		t.Fatal(err)
	}
	if out.String() != "remote content\n" {
		t.Errorf("curl = %q", out.String())
	}
	// Missing remote: curl-like exit 22.
	ctx = &Context{Args: []string{"http://host.example/missing"}, Stdout: &out,
		Env: map[string]string{"PASH_CURL_ROOT": root}}
	err := Std().Run("curl", ctx)
	if ExitCode(err) != 22 {
		t.Errorf("curl missing: exit=%d", ExitCode(err))
	}
}

func TestTextProc(t *testing.T) {
	html := `<html><body><a href="http://x/1">one</a> text &amp; more</body></html>` + "\n"
	got := run(t, "html-to-text", nil, html)
	if strings.Contains(got, "<") || !strings.Contains(got, "one") {
		t.Errorf("html-to-text = %q", got)
	}
	if got := run(t, "word-stem", nil, "running walked quickly\n"); got != "runn walk quick\n" {
		t.Errorf("word-stem = %q", got)
	}
	if got := run(t, "trigrams", nil, "a b c d\n"); got != "a b c\nb c d\n" {
		t.Errorf("trigrams = %q", got)
	}
	if got := run(t, "bigrams-aux", nil, "a\nb\nc\n"); got != "a b\nb c\n" {
		t.Errorf("bigrams-aux = %q", got)
	}
}

func TestFileCmd(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "s.sh"), []byte("#!/bin/sh\necho hi\n"), 0o755))
	must(t, os.WriteFile(filepath.Join(dir, "t.txt"), []byte("plain text\n"), 0o644))
	var out bytes.Buffer
	ctx := &Context{
		Stdin:  strings.NewReader("s.sh\nt.txt\n"),
		Stdout: &out,
		FS:     OSFS{Dir: dir},
	}
	if err := Std().Run("file", ctx); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "s.sh: POSIX shell script") || !strings.Contains(got, "t.txt: ASCII text") {
		t.Errorf("file = %q", got)
	}
}

// TestUnknownCommand: a name no entry implements — unknown, or one with
// only an annotation record — is the shell's "command not found": one
// line on stderr and exit status 127.
func TestUnknownCommand(t *testing.T) {
	for _, name := range []string{"no-such-cmd", "tsort"} {
		var out bytes.Buffer
		err := Std().Run(name, &Context{Stdout: &out, Stderr: &out})
		if ExitCode(err) != 127 || out.String() != name+": command not found\n" {
			t.Errorf("%s: err %v, output %q; want exit 127 and one not-found line", name, err, out.String())
		}
	}
}

func TestLongLines(t *testing.T) {
	// Lines far beyond the 64 KiB reader buffer (the .fastq concern §3.1).
	long := strings.Repeat("A", 300_000)
	in := long + "\nshort\n"
	if got := run(t, "cat", nil, in); got != in {
		t.Error("cat mangles long lines")
	}
	if got := run(t, "wc", []string{"-l"}, in); got != "2\n" {
		t.Errorf("wc -l long lines = %q", got)
	}
	if got := run(t, "head", []string{"-n", "1"}, in); got != long+"\n" {
		t.Error("head mangles long lines")
	}
}

func TestMissingFinalNewline(t *testing.T) {
	if got := run(t, "cat", []string{"-n"}, "a\nb"); got != "     1\ta\n     2\tb\n" {
		t.Errorf("cat -n without trailing NL = %q", got)
	}
	if got := run(t, "sort", nil, "b\na"); got != "a\nb\n" {
		t.Errorf("sort without trailing NL = %q", got)
	}
}
