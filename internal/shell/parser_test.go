package shell

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *List {
	t.Helper()
	l, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return l
}

func TestParseSimple(t *testing.T) {
	l := mustParse(t, "grep foo bar.txt")
	if len(l.Items) != 1 {
		t.Fatalf("got %d items, want 1", len(l.Items))
	}
	s, ok := l.Items[0].Cmd.(*Simple)
	if !ok {
		t.Fatalf("got %T, want *Simple", l.Items[0].Cmd)
	}
	if len(s.Args) != 3 {
		t.Fatalf("got %d args, want 3", len(s.Args))
	}
	for i, want := range []string{"grep", "foo", "bar.txt"} {
		got, _ := s.Args[i].Literal()
		if got != want {
			t.Errorf("arg %d = %q, want %q", i, got, want)
		}
	}
}

func TestParsePipeline(t *testing.T) {
	l := mustParse(t, "cat f | grep x | wc -l")
	p, ok := l.Items[0].Cmd.(*Pipeline)
	if !ok {
		t.Fatalf("got %T, want *Pipeline", l.Items[0].Cmd)
	}
	if len(p.Cmds) != 3 {
		t.Fatalf("got %d stages, want 3", len(p.Cmds))
	}
}

func TestParseAndOr(t *testing.T) {
	l := mustParse(t, "make && echo ok || echo fail")
	ao, ok := l.Items[0].Cmd.(*AndOr)
	if !ok {
		t.Fatalf("got %T, want *AndOr", l.Items[0].Cmd)
	}
	if len(ao.Rest) != 2 {
		t.Fatalf("got %d rest parts, want 2", len(ao.Rest))
	}
	if ao.Rest[0].Op != AndOp || ao.Rest[1].Op != OrOp {
		t.Errorf("ops = %v,%v, want &&,||", ao.Rest[0].Op, ao.Rest[1].Op)
	}
}

func TestParseSequenceAndBackground(t *testing.T) {
	l := mustParse(t, "a; b & c\nd")
	if len(l.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(l.Items))
	}
	if l.Items[0].Background || !l.Items[1].Background || l.Items[2].Background {
		t.Errorf("background flags wrong: %+v", l.Items)
	}
}

func TestParseRedirections(t *testing.T) {
	l := mustParse(t, "sort <in.txt >out.txt 2>err.txt")
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Redirs) != 3 {
		t.Fatalf("got %d redirs, want 3", len(s.Redirs))
	}
	if s.Redirs[0].Op != RedirIn || s.Redirs[1].Op != RedirOut {
		t.Errorf("redir ops wrong: %v %v", s.Redirs[0].Op, s.Redirs[1].Op)
	}
	if s.Redirs[2].N != 2 || s.Redirs[2].Op != RedirOut {
		t.Errorf("fd redir wrong: N=%d op=%v", s.Redirs[2].N, s.Redirs[2].Op)
	}
	if tgt, _ := s.Redirs[2].Target.Literal(); tgt != "err.txt" {
		t.Errorf("fd redir target = %q", tgt)
	}
}

func TestParseAppendAndDup(t *testing.T) {
	l := mustParse(t, "cmd >>log 2>&1")
	s := l.Items[0].Cmd.(*Simple)
	if s.Redirs[0].Op != RedirAppend {
		t.Errorf("op = %v, want >>", s.Redirs[0].Op)
	}
	if s.Redirs[1].Op != RedirDupOut || s.Redirs[1].N != 2 {
		t.Errorf("dup wrong: %+v", s.Redirs[1])
	}
}

func TestParseFor(t *testing.T) {
	l := mustParse(t, "for y in 2015 2016; do echo $y; done")
	f, ok := l.Items[0].Cmd.(*For)
	if !ok {
		t.Fatalf("got %T, want *For", l.Items[0].Cmd)
	}
	if f.Var != "y" || len(f.Items) != 2 || len(f.Body.Items) != 1 {
		t.Errorf("for parsed wrong: %+v", f)
	}
}

func TestParseForBraceRange(t *testing.T) {
	l := mustParse(t, "for y in {2015..2020}; do echo $y; done")
	f := l.Items[0].Cmd.(*For)
	if len(f.Items) != 1 {
		t.Fatalf("got %d items", len(f.Items))
	}
	br, ok := f.Items[0].Parts[0].(*BraceRange)
	if !ok {
		t.Fatalf("got %T, want *BraceRange", f.Items[0].Parts[0])
	}
	if br.Lo != 2015 || br.Hi != 2020 {
		t.Errorf("range = %d..%d", br.Lo, br.Hi)
	}
}

func TestParseIfElifElse(t *testing.T) {
	l := mustParse(t, "if a; then b; elif c; then d; else e; fi")
	i, ok := l.Items[0].Cmd.(*If)
	if !ok {
		t.Fatalf("got %T, want *If", l.Items[0].Cmd)
	}
	if i.Else == nil {
		t.Fatal("missing else branch (elif)")
	}
	inner, ok := i.Else.Items[0].Cmd.(*If)
	if !ok {
		t.Fatalf("elif not desugared: %T", i.Else.Items[0].Cmd)
	}
	if inner.Else == nil {
		t.Error("inner else missing")
	}
}

func TestParseWhileUntil(t *testing.T) {
	l := mustParse(t, "while true; do x; done; until false; do y; done")
	w := l.Items[0].Cmd.(*While)
	if w.Until {
		t.Error("first loop should be while")
	}
	u := l.Items[1].Cmd.(*While)
	if !u.Until {
		t.Error("second loop should be until")
	}
}

func TestParseSubshellAndBrace(t *testing.T) {
	l := mustParse(t, "( a; b ); { c; d; }")
	if _, ok := l.Items[0].Cmd.(*Subshell); !ok {
		t.Errorf("got %T, want *Subshell", l.Items[0].Cmd)
	}
	if _, ok := l.Items[1].Cmd.(*Brace); !ok {
		t.Errorf("got %T, want *Brace", l.Items[1].Cmd)
	}
}

func TestParseAssignments(t *testing.T) {
	l := mustParse(t, `base="ftp://x/y" count=3 env`)
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Assigns) != 2 {
		t.Fatalf("got %d assigns, want 2", len(s.Assigns))
	}
	if s.Assigns[0].Name != "base" || s.Assigns[1].Name != "count" {
		t.Errorf("assign names wrong: %+v", s.Assigns)
	}
	if got, _ := s.Args[0].Literal(); got != "env" {
		t.Errorf("cmd = %q, want env", got)
	}
}

func TestParseBareAssignment(t *testing.T) {
	l := mustParse(t, "x=1")
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Assigns) != 1 || len(s.Args) != 0 {
		t.Fatalf("bare assignment parsed wrong: %+v", s)
	}
}

func TestAssignNotSplitAfterCommand(t *testing.T) {
	l := mustParse(t, "env x=1")
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Assigns) != 0 || len(s.Args) != 2 {
		t.Fatalf("x=1 after command must be an argument: %+v", s)
	}
}

func TestParseQuoting(t *testing.T) {
	l := mustParse(t, `sed "s;^;$base/$y/;" 'lit $x' a\ b`)
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Args) != 4 {
		t.Fatalf("got %d args, want 4", len(s.Args))
	}
	dq, ok := s.Args[1].Parts[0].(*DblQuoted)
	if !ok {
		t.Fatalf("arg1 not double-quoted: %T", s.Args[1].Parts[0])
	}
	foundParam := false
	for _, p := range dq.Parts {
		if pp, ok := p.(*Param); ok && pp.Name == "base" {
			foundParam = true
		}
	}
	if !foundParam {
		t.Error("missing $base param inside double quotes")
	}
	if sq, ok := s.Args[2].Parts[0].(*SglQuoted); !ok || sq.Text != "lit $x" {
		t.Errorf("single quote wrong: %+v", s.Args[2].Parts[0])
	}
	if lit, _ := s.Args[3].Literal(); lit != "a b" {
		t.Errorf("escaped space wrong: %q", lit)
	}
}

func TestParseComments(t *testing.T) {
	l := mustParse(t, "echo a # trailing comment\n# whole line\necho b")
	if len(l.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(l.Items))
	}
}

func TestParseCmdSub(t *testing.T) {
	l := mustParse(t, "echo $(date) `uname`")
	s := l.Items[0].Cmd.(*Simple)
	if _, ok := s.Args[1].Parts[0].(*CmdSub); !ok {
		t.Errorf("got %T, want *CmdSub", s.Args[1].Parts[0])
	}
	if cs, ok := s.Args[2].Parts[0].(*CmdSub); !ok || cs.Src != "uname" {
		t.Errorf("backquote sub wrong: %+v", s.Args[2].Parts[0])
	}
}

func TestParseNestedCmdSub(t *testing.T) {
	l := mustParse(t, "echo $(echo $(date))")
	s := l.Items[0].Cmd.(*Simple)
	cs := s.Args[1].Parts[0].(*CmdSub)
	if !strings.Contains(cs.Src, "$(date)") {
		t.Errorf("nested sub lost: %q", cs.Src)
	}
}

func TestParseHeredoc(t *testing.T) {
	l := mustParse(t, "cat <<EOF\nhello\nworld\nEOF\necho after")
	if len(l.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(l.Items))
	}
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Redirs) != 1 || s.Redirs[0].Op != RedirHeredoc {
		t.Fatalf("heredoc redir missing: %+v", s.Redirs)
	}
	if s.Redirs[0].Heredoc != "hello\nworld\n" {
		t.Errorf("heredoc body = %q", s.Redirs[0].Heredoc)
	}
}

func TestParseNegatedPipeline(t *testing.T) {
	l := mustParse(t, "! grep -q x f")
	p, ok := l.Items[0].Cmd.(*Pipeline)
	if !ok || !p.Negated {
		t.Fatalf("negation lost: %T", l.Items[0].Cmd)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"cat |",
		"for in; do; done",
		"if x; then y",
		"( a",
		"'unterminated",
		`"unterminated`,
		"a && ",
		"cat <<EOF\nno end",
		"2>",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseWeatherScript(t *testing.T) {
	src := `base="ftp://ftp.ncdc.noaa.gov/pub/data/noaa";
for y in {2015..2020}; do
 curl $base/$y | grep gz | tr -s " " | cut -d " " -f9 |
 sed "s;^;$base/$y/;" | xargs -n 1 curl -s | gunzip |
 cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 |
 sed "s/^/Maximum temperature for $y is: /"
done`
	l := mustParse(t, src)
	if len(l.Items) != 2 {
		t.Fatalf("got %d top-level items, want 2", len(l.Items))
	}
	f, ok := l.Items[1].Cmd.(*For)
	if !ok {
		t.Fatalf("got %T, want *For", l.Items[1].Cmd)
	}
	p, ok := f.Body.Items[0].Cmd.(*Pipeline)
	if !ok {
		t.Fatalf("loop body not a pipeline: %T", f.Body.Items[0].Cmd)
	}
	if len(p.Cmds) != 12 {
		t.Errorf("got %d pipeline stages, want 12", len(p.Cmds))
	}
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		"grep foo bar.txt",
		"cat f | grep x | wc -l",
		"a && b || c",
		"a; b & c",
		"for y in 1 2 3; do echo $y; done",
		"if a; then b; else c; fi",
		"while true; do x; done",
		"( a; b )",
		"{ c; d; }",
		`x=1 y="two $z" cmd arg`,
		"sort <in >out 2>err",
		`sed "s;^;$base/$y/;" file`,
		"echo {1..5} {a,b,c}",
		"! grep -q x f",
		"cmd >>log 2>&1",
	}
	for _, src := range srcs {
		ast1 := mustParse(t, src)
		printed := Print(ast1)
		ast2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q) failed: %v", src, printed, err)
			continue
		}
		if !reflect.DeepEqual(ast1, ast2) {
			t.Errorf("round trip changed AST for %q:\nprinted: %q\n1: %#v\n2: %#v", src, printed, ast1, ast2)
		}
	}
}

func TestWordLiteral(t *testing.T) {
	l := mustParse(t, `cmd plain 'single' "double" "mix$x"`)
	s := l.Items[0].Cmd.(*Simple)
	for i, want := range []struct {
		lit string
		ok  bool
	}{
		{"cmd", true}, {"plain", true}, {"single", true}, {"double", true}, {"", false},
	} {
		got, ok := s.Args[i].Literal()
		if ok != want.ok || (ok && got != want.lit) {
			t.Errorf("arg %d Literal() = %q,%v; want %q,%v", i, got, ok, want.lit, want.ok)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := Parse("echo ok\necho ok\ncat |")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T, want *SyntaxError", err)
	}
	if se.Line < 3 {
		t.Errorf("error line = %d, want >= 3", se.Line)
	}
}

// Regression tests for review findings: quote-aware $( scanning and
// reserved-word handling.
func TestCmdSubQuotedParens(t *testing.T) {
	// Quoted parens inside substitutions are legal (bash: prints "(").
	for _, src := range []string{
		"echo `echo '('`",
		`echo $(echo '(')`,
		`echo $(echo "(")`,
		`echo $(echo \()`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) = %v, want ok", src, err)
		}
	}
	// Unquoted stray parens in backquote bodies cannot re-embed as $().
	for _, src := range []string{"echo `(`", "echo `)x`"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted an unprintable substitution", src)
		}
	}
}

func TestEscapedReservedWords(t *testing.T) {
	// \done parses as a command named "done", and printing round-trips.
	for _, src := range []string{
		`while a; do \done; done`,
		`for x in \do b; do echo $x; done`,
		`echo \done`,
	} {
		list, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q) = %v", src, err)
		}
		printed := Print(list)
		if _, err := Parse(printed); err != nil {
			t.Errorf("Print(%q) = %q does not re-parse: %v", src, printed, err)
		}
	}
	// Empty compound bodies are syntax errors, per POSIX.
	for _, src := range []string{"while do done", "if then fi", "{ }", "( )", "for x in a; do done"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted an empty compound body", src)
		}
	}
}

// TestParseRefusesUnsupportedExpansions: parameter operators, ${#name}
// and arithmetic expansion are parse errors that name the construct,
// never a silently empty word or a command named "3*4"; plain $x and
// ${x} forms still parse.
func TestParseRefusesUnsupportedExpansions(t *testing.T) {
	for src, want := range map[string]string{
		`echo ${y:-def}`:      "${y:-def}",
		`x=abc; echo ${#x}`:   "${#x}",
		`x=a.b; echo ${x%.b}`: "${x%.b}",
		`echo "${x#a}"`:       "${x#a}",
		`echo $((3*4))`:       "$((",
	} {
		_, err := Parse(src)
		if _, ok := err.(*SyntaxError); !ok || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want a syntax error naming %s", src, err, want)
		}
	}
	for _, src := range []string{`echo $x ${x} ${x}y ${10} ${#} ${?} "$@" ${*}`, `echo $(echo a) $( (echo b) )`} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}
