package commands

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

func init() { register("awk", awk) }

// awk runs the subset of AWK that the corpus's one-liners use:
//
//	program := item { sep item }          sep is ';' or a newline
//	item    := END block | expr [block] | block
//	block   := '{' [stmt { sep stmt }] '}'
//	stmt    := print [expr { ',' expr }] | NAME += expr
//	expr    := mod ['==' mod]
//	mod     := operand { '%' operand }
//	operand := NUMBER | NAME | NR | NF | '$' operand
//
// A rule whose pattern (expr) is true, or that has none, runs its block
// on the record; a pattern with no block prints the record. END blocks
// run after the last record, which $0 and NF still describe. Records are
// lines, fields are separated by runs of blanks and tabs, print separates
// its arguments with a blank and ends with a newline, and a variable is
// uninitialized until += sets it. Operands are files ("-" is stdin); awk
// takes no flags.
//
// Everything else in POSIX awk is refused by name before any input is
// read: the other keywords, builtin functions, special variables and
// operators (redirection and pipes among them), string and regex
// literals, concatenation and flags.
func awk(ctx *Context) error {
	if len(ctx.Args) == 0 {
		return ctx.Errorf("missing program")
	}
	src, operands := ctx.Args[0], ctx.Args[1:]
	if len(src) > 1 && src[0] == '-' {
		return ctx.Errorf("flag %q is not supported", src)
	}
	prog, err := parseAwk(src)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	in := &awkInterp{ctx: ctx, vars: map[string]awkValue{}, fields: []string{""}, out: NewLineWriter(ctx.Stdout)}
	defer in.out.Flush()
	err = EachLineReaders(readers, func(line []byte) error {
		in.nr++
		rec := string(line)
		in.fields = awkFields(append(in.fields[:0], rec), rec)
		for _, r := range prog.rules {
			if r.pattern != nil {
				v, err := in.eval(r.pattern)
				if err != nil {
					return err
				}
				if !v.bool() {
					continue
				}
			}
			if err := in.run(r.action); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, end := range prog.ends {
		if err := in.run(end); err != nil {
			return err
		}
	}
	return in.out.Flush()
}

// awkFields appends the blank-separated fields of line to dst.
func awkFields(dst []string, line string) []string {
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if j > i {
			dst = append(dst, line[i:j])
		}
		i = j
	}
	return dst
}

// --- values ---

// awkValue is a number, a string read from input (numeric where it
// looks like a number, as POSIX's "numeric strings" are), or — the zero
// value — uninitialized: 0 and "" at once.
type awkValue struct {
	s    string
	f    float64
	kind byte // 0 uninitialized, 'n' number, 's' input string
}

func awkNum(f float64) awkValue { return awkValue{f: f, kind: 'n'} }

func (v awkValue) num() float64 {
	switch v.kind {
	case 'n':
		return v.f
	case 's':
		t := strings.TrimLeft(v.s, " \t")
		f, _ := strconv.ParseFloat(t[:awkNumPrefix(t)], 64)
		return f
	}
	return 0
}

func (v awkValue) str() string {
	switch v.kind {
	case 'n':
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e16 {
			return strconv.FormatInt(int64(v.f), 10)
		}
		return strconv.FormatFloat(v.f, 'g', 6, 64)
	case 's':
		return v.s
	}
	return ""
}

// numeric reports whether v compares as a number: a number, an
// uninitialized value, or an input string that is a number throughout
// (blanks aside).
func (v awkValue) numeric() bool {
	if v.kind != 's' {
		return true
	}
	t := strings.Trim(v.s, " \t")
	return t != "" && awkNumPrefix(t) == len(t)
}

// bool is v's truth as a pattern.
func (v awkValue) bool() bool {
	if v.numeric() {
		return v.num() != 0
	}
	return v.s != ""
}

// awkNumPrefix returns the length of the longest prefix of s that is a
// decimal number: [+-] digits [. digits] [e [+-] digits], with at least
// one mantissa digit; 0 when there is none.
func awkNumPrefix(s string) int {
	digit := func(i int) bool { return i < len(s) && s[i] >= '0' && s[i] <= '9' }
	i, digits := 0, 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	for ; digit(i); i++ {
		digits++
	}
	if i < len(s) && s[i] == '.' {
		for i++; digit(i); i++ {
			digits++
		}
	}
	if digits == 0 {
		return 0
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if digit(j) {
			for i = j; digit(i); i++ {
			}
		}
	}
	return i
}

// --- program ---

type awkProgram struct {
	rules []awkRule
	ends  [][]awkStmt
}

type awkRule struct {
	pattern *awkExpr // nil: every record
	action  []awkStmt
}

// awkStmt is print (target "") or target += val.
type awkStmt struct {
	args   []*awkExpr // print's arguments; none prints the record
	target string
	val    *awkExpr
}

// awkPrintRecord is the action of a rule that has only a pattern.
var awkPrintRecord = []awkStmt{{}}

type awkExpr struct {
	op   byte // 'n' number, 'v' variable, 'R' NR, 'F' NF, '$' field l, '%' l % r, '=' l == r
	num  float64
	name string
	l, r *awkExpr
}

// --- lexer ---

type awkTok struct {
	kind string // "num", "name", a kept word (END print NR NF), ";" or punctuation
	text string
	f    float64
}

// awkRefused names every POSIX awk word outside the kept subset by
// what it is.
var awkRefused = func() map[string]string {
	m := map[string]string{}
	for what, words := range map[string]string{
		"keyword":          "BEGIN break continue delete do else exit for function getline if in next nextfile printf return while",
		"builtin function": "atan2 close cos exp fflush gsub index int length log match rand sin split sprintf sqrt srand sub substr system tolower toupper",
		"special variable": "ARGC ARGV CONVFMT ENVIRON FILENAME FNR FS OFMT OFS ORS RLENGTH RS RSTART SUBSEP",
	} {
		for _, w := range strings.Fields(words) {
			m[w] = what
		}
	}
	return m
}()

// awkPunct lists awk's operators and punctuation, longest first; those
// outside the kept subset carry what they are.
var awkPunct = []struct{ text, refused string }{
	{"==", ""}, {"+=", ""},
	{"-=", "assignment"}, {"*=", "assignment"}, {"/=", "assignment"}, {"%=", "assignment"}, {"^=", "assignment"},
	{"!=", "comparison"}, {"<=", "comparison"}, {">=", "comparison"},
	{"++", "increment"}, {"--", "decrement"}, {"&&", "logical and"}, {"||", "logical or"},
	{"!~", "regular expression match"}, {">>", "output redirection"},
	{"$", ""}, {",", ""}, {"{", ""}, {"}", ""}, {"%", ""}, {";", ""}, {"\n", ""},
	{"=", "assignment"}, {"<", "comparison or input redirection"}, {">", "comparison or output redirection"},
	{"|", "pipe"}, {"!", "negation"}, {"~", "regular expression match"},
	{"?", "conditional expression"}, {":", "conditional expression"},
	{"+", "arithmetic"}, {"-", "arithmetic"}, {"*", "arithmetic"}, {"/", "division or regular expression"}, {"^", "arithmetic"},
	{"(", "grouping or function call"}, {")", "grouping or function call"}, {"[", "array subscript"}, {"]", "array subscript"},
	{`"`, "string literal"}, {"#", "comment"}, {`\`, "line continuation"},
}

// awkNameLen returns the length of the name s starts with, 0 if none.
func awkNameLen(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return i
		}
	}
	return len(s)
}

func lexAwk(src string) ([]awkTok, error) {
	var toks []awkTok
	for pos := 0; pos < len(src); {
		c, rest := src[pos], src[pos:]
		if c == ' ' || c == '\t' {
			pos++
			continue
		}
		if c >= '0' && c <= '9' {
			n := awkNumPrefix(rest)
			f, err := strconv.ParseFloat(rest[:n], 64)
			if err != nil {
				return nil, fmt.Errorf("bad number %q", rest[:n])
			}
			toks = append(toks, awkTok{kind: "num", text: rest[:n], f: f})
			pos += n
			continue
		}
		if n := awkNameLen(rest); n > 0 {
			word := rest[:n]
			if what, ok := awkRefused[word]; ok {
				return nil, fmt.Errorf("%q (%s) is not supported", word, what)
			}
			kind := "name"
			if word == "END" || word == "print" || word == "NR" || word == "NF" {
				kind = word
			}
			toks = append(toks, awkTok{kind: kind, text: word})
			pos += n
			continue
		}
		matched := false
		for _, p := range awkPunct {
			if strings.HasPrefix(rest, p.text) {
				if p.refused != "" {
					return nil, fmt.Errorf("%q (%s) is not supported", p.text, p.refused)
				}
				kind := p.text
				if kind == "\n" {
					kind = ";"
				}
				toks = append(toks, awkTok{kind: kind, text: p.text})
				pos += len(p.text)
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return toks, nil
}

// --- parser ---

type awkParser struct {
	toks []awkTok
	pos  int
}

func parseAwk(src string) (*awkProgram, error) {
	toks, err := lexAwk(src)
	if err != nil {
		return nil, err
	}
	p := &awkParser{toks: toks}
	prog := &awkProgram{}
	for p.skipSeps(); p.pos < len(p.toks); p.skipSeps() {
		switch {
		case p.accept("END"):
			blk, err := p.block()
			if err != nil {
				return nil, err
			}
			prog.ends = append(prog.ends, blk)
		case p.at("{"):
			blk, err := p.block()
			if err != nil {
				return nil, err
			}
			prog.rules = append(prog.rules, awkRule{action: blk})
		default:
			pat, err := p.expr()
			if err != nil {
				return nil, err
			}
			rule := awkRule{pattern: pat, action: awkPrintRecord}
			if p.at("{") {
				if rule.action, err = p.block(); err != nil {
					return nil, err
				}
			} else if err := p.want(p.pos == len(p.toks) || p.at(";")); err != nil {
				return nil, err
			}
			prog.rules = append(prog.rules, rule)
		}
	}
	return prog, nil
}

func (p *awkParser) at(kind string) bool {
	return p.pos < len(p.toks) && p.toks[p.pos].kind == kind
}

func (p *awkParser) accept(kind string) bool {
	if p.at(kind) {
		p.pos++
		return true
	}
	return false
}

func (p *awkParser) skipSeps() {
	for p.accept(";") {
	}
}

// want returns nil when ok holds, else an error naming the token at
// p.pos.
func (p *awkParser) want(ok bool) error {
	switch {
	case ok:
		return nil
	case p.pos >= len(p.toks):
		return fmt.Errorf("unexpected end of program")
	}
	return fmt.Errorf("unexpected %q", p.toks[p.pos].text)
}

func (p *awkParser) block() ([]awkStmt, error) {
	if err := p.want(p.accept("{")); err != nil {
		return nil, err
	}
	var list []awkStmt
	for p.skipSeps(); !p.accept("}"); p.skipSeps() {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		list = append(list, st)
		if err := p.want(p.at(";") || p.at("}")); err != nil {
			return nil, err
		}
	}
	return list, nil
}

func (p *awkParser) stmt() (awkStmt, error) {
	var st awkStmt
	switch {
	case p.accept("print"):
		if p.at(";") || p.at("}") {
			return st, nil
		}
		for {
			e, err := p.expr()
			if err != nil {
				return st, err
			}
			st.args = append(st.args, e)
			if !p.accept(",") {
				return st, nil
			}
		}
	case p.at("name") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == "+=":
		st.target = p.toks[p.pos].text
		p.pos += 2
		var err error
		st.val, err = p.expr()
		return st, err
	}
	if p.pos >= len(p.toks) {
		return st, p.want(false)
	}
	return st, fmt.Errorf("a statement is print or NAME += EXPR, not one starting %q", p.toks[p.pos].text)
}

func (p *awkParser) expr() (*awkExpr, error) {
	e, err := p.mod()
	if err == nil && p.accept("==") {
		var r *awkExpr
		r, err = p.mod()
		e = &awkExpr{op: '=', l: e, r: r}
	}
	if err == nil && (p.at("num") || p.at("name") || p.at("NR") || p.at("NF") || p.at("$")) {
		err = fmt.Errorf("concatenation (%q after an expression) is not supported", p.toks[p.pos].text)
	}
	return e, err
}

func (p *awkParser) mod() (*awkExpr, error) {
	e, err := p.operand()
	for err == nil && p.accept("%") {
		var r *awkExpr
		r, err = p.operand()
		e = &awkExpr{op: '%', l: e, r: r}
	}
	return e, err
}

func (p *awkParser) operand() (*awkExpr, error) {
	if p.pos >= len(p.toks) {
		return nil, p.want(false)
	}
	t := p.toks[p.pos]
	p.pos++
	switch t.kind {
	case "num":
		return &awkExpr{op: 'n', num: t.f}, nil
	case "name":
		return &awkExpr{op: 'v', name: t.text}, nil
	case "NR":
		return &awkExpr{op: 'R'}, nil
	case "NF":
		return &awkExpr{op: 'F'}, nil
	case "$":
		idx, err := p.operand()
		return &awkExpr{op: '$', l: idx}, err
	}
	p.pos--
	return nil, p.want(false)
}

// --- interpreter ---

type awkInterp struct {
	ctx    *Context
	vars   map[string]awkValue
	nr     int
	fields []string // fields[0] is $0
	out    *LineWriter
	line   []byte
}

func (in *awkInterp) run(action []awkStmt) error {
	for _, st := range action {
		if st.target != "" {
			v, err := in.eval(st.val)
			if err != nil {
				return err
			}
			in.vars[st.target] = awkNum(in.vars[st.target].num() + v.num())
			continue
		}
		in.line = in.line[:0]
		if len(st.args) == 0 {
			in.line = append(in.line, in.fields[0]...)
		}
		for i, a := range st.args {
			v, err := in.eval(a)
			if err != nil {
				return err
			}
			if i > 0 {
				in.line = append(in.line, ' ')
			}
			in.line = append(in.line, v.str()...)
		}
		if err := in.out.WriteLine(in.line); err != nil {
			return err
		}
	}
	return nil
}

func (in *awkInterp) eval(e *awkExpr) (awkValue, error) {
	switch e.op {
	case 'n':
		return awkNum(e.num), nil
	case 'v':
		return in.vars[e.name], nil
	case 'R':
		return awkNum(float64(in.nr)), nil
	case 'F':
		return awkNum(float64(len(in.fields) - 1)), nil
	case '$':
		iv, err := in.eval(e.l)
		i := iv.num()
		switch {
		case err != nil:
			return iv, err
		case !(i >= 0):
			return iv, in.ctx.Errorf("field index %s is negative", iv.str())
		case i >= float64(len(in.fields)):
			return awkValue{kind: 's'}, nil
		}
		return awkValue{s: in.fields[int(i)], kind: 's'}, nil
	}
	l, err := in.eval(e.l)
	if err != nil {
		return l, err
	}
	r, err := in.eval(e.r)
	if err != nil {
		return r, err
	}
	if e.op == '%' {
		if r.num() == 0 {
			return r, in.ctx.Errorf("division by zero in %%")
		}
		return awkNum(math.Mod(l.num(), r.num())), nil
	}
	eq := l.str() == r.str()
	if l.numeric() && r.numeric() {
		eq = l.num() == r.num()
	}
	if eq {
		return awkNum(1), nil
	}
	return awkNum(0), nil
}
