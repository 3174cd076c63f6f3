package commands

import (
	"os"
	"strings"
	"testing"
)

func awkRun(t *testing.T, prog string, stdin string) string {
	t.Helper()
	return run(t, "awk", []string{prog}, stdin)
}

func TestAwkPrint(t *testing.T) {
	if got := awkRun(t, "{print}", "a\nb\n"); got != "a\nb\n" {
		t.Errorf("print = %q", got)
	}
	if got := awkRun(t, "{print $2}", "a b c\nd e f\n"); got != "b\ne\n" {
		t.Errorf("print $2 = %q", got)
	}
	if got := awkRun(t, "{print $2, $0}", "x y\n"); got != "y x y\n" {
		t.Errorf("print $2,$0 = %q", got)
	}
	if got := awkRun(t, "{print NF}", "a b c\n\n"); got != "3\n0\n" {
		t.Errorf("NF = %q", got)
	}
	if got := awkRun(t, "{print NR}", "a\nb\n"); got != "1\n2\n" {
		t.Errorf("NR = %q", got)
	}
}

// TestAwkFieldSeparator: fields are split on runs of blanks and tabs
// only, ignoring leading and trailing ones; a carriage return is part of
// a field, as in the host's awk.
func TestAwkFieldSeparator(t *testing.T) {
	if got := awkRun(t, "{print NF, $1, $3, $NF}", "  a\tb  \t c \n"); got != "3 a c c\n" {
		t.Errorf("blank runs = %q", got)
	}
	if got := awkRun(t, "{print NF, $1}", "a\rb c\n"); got != "2 a\rb\n" {
		t.Errorf("carriage return = %q", got)
	}
	if got := awkRun(t, "{print $5, NF}", "a b\n"); got != " 2\n" {
		t.Errorf("field past NF = %q", got)
	}
}

func TestAwkPatterns(t *testing.T) {
	in := "apple 5\nbanana 3\ncherry 9\n"
	if got := awkRun(t, "NR == 2", in); got != "banana 3\n" {
		t.Errorf("bare pattern = %q", got)
	}
	if got := awkRun(t, "$2 == 3 {print $1}", in); got != "banana\n" {
		t.Errorf("pattern with action = %q", got)
	}
	if got := awkRun(t, "NR % 2 == 0", "1\n2\n3\n4\n"); got != "2\n4\n" {
		t.Errorf("modulo pattern = %q", got)
	}
	if got := awkRun(t, "$2\n{print $1}", "a 0\nb x\nc\n"); got != "a\nb x\nb\nc\n" {
		t.Errorf("newline ends a pattern-only rule = %q", got)
	}
}

func TestAwkBeginEnd(t *testing.T) {
	// END sees the last record; END blocks run in order.
	if got := awkRun(t, "END {print NR, NF, $1} END {print}", "a b\nc d e\n"); got != "2 3 c\nc d e\n" {
		t.Errorf("END = %q", got)
	}
	if got := awkRun(t, "END {print NR, NF, s}", ""); got != "0 0 \n" {
		t.Errorf("END over no input = %q", got)
	}
	if out, err := runErr(t, "awk", []string{`BEGIN {print NR}`}, "x\n"); err == nil {
		t.Errorf("BEGIN ran: %q", out)
	}
}

func TestAwkArithmetic(t *testing.T) {
	if got := awkRun(t, "{print $1 % $2, $1 % 3 % 2}", "7 3\n-7 3\n7.5 2\n"); got != "1 1\n-1 -1\n1.5 1.5\n" {
		t.Errorf("%% = %q", got)
	}
	if got := awkRun(t, "{s += $1; n += 1} END {print s, n, s % n}", "1.5\n2.25\n 3x\n"); got != "6.75 3 0.75\n" {
		t.Errorf("+= = %q", got)
	}
	if _, err := runErr(t, "awk", []string{"{print $1 % 0}"}, "1\n"); err == nil {
		t.Error("% 0 succeeded")
	}
}

func TestAwkNumericStringComparison(t *testing.T) {
	// Input fields compare numerically when both look numeric, as
	// strings otherwise; an unset variable equals both 0 and "".
	in := "10 10.0\n1e1 +10\nx1 x1.0\nabc abc\n"
	if got := awkRun(t, "$1 == $2 {print NR}", in); got != "1\n2\n4\n" {
		t.Errorf("field compare = %q", got)
	}
	if got := awkRun(t, "{print x == 0, x == $3}", "a\n"); got != "1 1\n" {
		t.Errorf("unset compare = %q", got)
	}
}

func TestAwkErrors(t *testing.T) {
	for _, prog := range []string{
		"{print",      // unterminated block
		"{print $}",   // missing field index... actually $} is a parse error
		"{x = }",      // missing rhs
		"{1 = 2}",     // assign to non-lvalue
		"{nosuch(1)}", // unknown function
		"{print $1,}", // trailing comma
	} {
		if _, err := runErr(t, "awk", []string{prog}, "x\n"); err == nil {
			t.Errorf("awk %q succeeded, want error", prog)
		}
	}
}

func TestAwkUnsupportedFlags(t *testing.T) {
	if _, err := runErr(t, "awk", []string{"-f", "prog.awk"}, ""); err == nil {
		t.Error("awk -f must be rejected")
	}
}

func TestAwkLongInput(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10000; i++ {
		in.WriteString("word ")
		in.WriteString(string(rune('a' + i%26)))
		in.WriteByte('\n')
	}
	got := awkRun(t, "{n += 1} END {print n}", in.String())
	if got != "10000\n" {
		t.Errorf("long input count = %q", got)
	}
}

// FuzzAwk: the parser never panics, a program it accepts runs to its end
// over a small input, and a program that uses a word outside the kept
// subset is refused. Seeds are the corpus's programs and the refusal
// table's arguments.
func FuzzAwk(f *testing.F) {
	for _, prog := range []string{"{print $2, $0}", "{s += NF} END {print s}", "NR % 2 == 0", "{print NR, $1}", "{print $3}", "{print}"} {
		f.Add(prog)
	}
	table, err := os.ReadFile("testdata/awk-refused.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, row := range strings.Split(string(table), "\n") {
		if cols := strings.Split(row, "\t"); !strings.HasPrefix(row, "#") && len(cols) > 1 {
			for _, arg := range cols[1:] {
				f.Add(arg)
			}
		}
	}
	f.Fuzz(func(t *testing.T, prog string) {
		_, err := parseAwk(prog)
		words := strings.FieldsFunc(prog, func(r rune) bool {
			return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
		})
		for _, w := range words {
			if what, ok := awkRefused[w]; ok && err == nil {
				t.Fatalf("%q uses %s %q and parsed", prog, what, w)
			}
		}
		if err == nil {
			runErr(t, "awk", []string{prog}, "a 1\n\nb -2 x\n")
		}
	})
}
