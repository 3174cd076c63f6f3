package annot

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseRecords parses a sequence of annotation records in the Appendix A
// DSL, e.g.:
//
//	comm {
//	| -1 /\ -3 => (S, [args[1]], [stdout])
//	| -2 /\ -3 => (S, [args[0]], [stdout])
//	| _        => (P, [args[0], args[1]], [stdout])
//	}
//
// Extensions over the paper's grammar: an optional `takesvalue -a -b;`
// pragma as the first record element (declaring options that consume a
// value), `\/` for or (mirroring /\ for and), and `#` line comments.
func ParseRecords(src string) ([]*Record, error) {
	toks, err := tokenizeDSL(src)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	var recs []*Record
	for !p.eof() {
		r, err := p.parseRecord()
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// ParseRecord parses exactly one record.
func ParseRecord(src string) (*Record, error) {
	recs, err := ParseRecords(src)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("annot: expected exactly one record, got %d", len(recs))
	}
	return recs[0], nil
}

// --- tokenizer ---

type dtok struct {
	text string
	line int
}

func tokenizeDSL(src string) ([]dtok, error) {
	var toks []dtok
	line := 1
	i := 0
	push := func(s string) { toks = append(toks, dtok{text: s, line: line}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{' || c == '}' || c == '(' || c == ')' || c == '[' || c == ']' ||
			c == ',' || c == '|' || c == ';' || c == ':':
			push(string(c))
			i++
		case strings.HasPrefix(src[i:], "=>"):
			push("=>")
			i += 2
		case c == '=':
			push("=")
			i++
		case strings.HasPrefix(src[i:], "/\\"):
			push("/\\")
			i += 2
		case strings.HasPrefix(src[i:], "\\/"):
			push("\\/")
			i += 2
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j == len(src) {
				return nil, fmt.Errorf("annot: line %d: unterminated string", line)
			}
			push(src[i : j+1])
			i = j + 1
		default:
			j := i
			for j < len(src) && !isDSLBreak(src[j]) {
				j++
			}
			if j == i {
				// The one break character no case above consumes: a
				// backslash outside /\ and \/.
				return nil, fmt.Errorf("annot: line %d: unexpected %q", line, c)
			}
			push(src[i:j])
			i = j
		}
	}
	return toks, nil
}

func isDSLBreak(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '{', '}', '(', ')', '[', ']', ',', '|', ';', ':', '=', '#', '"':
		return true
	}
	// Backslash breaks so that the /\ and \/ operators (written with
	// surrounding spaces in records) never glue onto a name; plain '/'
	// does not break, so command paths stay single tokens.
	return c == '\\'
}

// --- parser ---

type rparser struct {
	toks []dtok
	pos  int
}

func (p *rparser) eof() bool { return p.pos >= len(p.toks) }

func (p *rparser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *rparser) line() int {
	if p.eof() {
		if len(p.toks) == 0 {
			return 1
		}
		return p.toks[len(p.toks)-1].line
	}
	return p.toks[p.pos].line
}

func (p *rparser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *rparser) expect(s string) error {
	if got := p.next(); got != s {
		return fmt.Errorf("annot: line %d: expected %q, got %q", p.line(), s, got)
	}
	return nil
}

func (p *rparser) parseRecord() (*Record, error) {
	name := p.next()
	if name == "" || !isCommandName(name) {
		return nil, fmt.Errorf("annot: line %d: invalid command name %q", p.line(), name)
	}
	rec := &Record{Name: name, ValueOpts: map[string]bool{}}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	if p.peek() == "takesvalue" {
		p.next()
		for strings.HasPrefix(p.peek(), "-") {
			rec.ValueOpts[p.next()] = true
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	for p.peek() == "|" {
		p.next()
		cl, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		rec.Clauses = append(rec.Clauses, *cl)
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if len(rec.Clauses) == 0 {
		return nil, fmt.Errorf("annot: record %s has no clauses", name)
	}
	return rec, nil
}

func (p *rparser) parseClause() (*Clause, error) {
	var pred Pred
	if p.peek() == "_" || p.peek() == "otherwise" {
		p.next()
	} else {
		pp, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		pred = pp
	}
	if err := p.expect("=>"); err != nil {
		return nil, err
	}
	asn, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	return &Clause{Pred: pred, Assign: *asn}, nil
}

// parsePred parses an option predicate with `or` (lowest), `and`, `not`
// precedence. Both the keyword and symbol spellings are accepted.
func (p *rparser) parsePred() (Pred, error) {
	return p.parseOr()
}

func (p *rparser) parseOr() (Pred, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "or" || p.peek() == "\\/" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *rparser) parseAnd() (Pred, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "and" || p.peek() == "/\\" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *rparser) parseUnary() (Pred, error) {
	switch {
	case p.peek() == "not":
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{P: inner}, nil
	case p.peek() == "(":
		p.next()
		inner, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.peek() == "value":
		p.next()
		opt := p.next()
		if !strings.HasPrefix(opt, "-") {
			return nil, fmt.Errorf("annot: line %d: expected option after value, got %q", p.line(), opt)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		val := p.next()
		val = strings.Trim(val, `"`)
		return &ValueEq{Opt: opt, Val: val}, nil
	case strings.HasPrefix(p.peek(), "-"):
		return &HasOpt{Opt: p.next()}, nil
	}
	return nil, fmt.Errorf("annot: line %d: expected predicate, got %q", p.line(), p.peek())
}

func (p *rparser) parseAssignment() (*Assignment, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cls, err := ParseClass(p.next())
	if err != nil {
		return nil, fmt.Errorf("annot: line %d: %v", p.line(), err)
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	ins, err := p.parseIOList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	outs, err := p.parseIOList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &Assignment{Class: cls, Inputs: ins, Outputs: outs}, nil
}

func (p *rparser) parseIOList() ([]IORef, error) {
	if err := p.expect("["); err != nil {
		return nil, err
	}
	var refs []IORef
	for p.peek() != "]" && !p.eof() {
		r, err := p.parseIORef()
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	return refs, nil
}

// parseIORef parses stdin | stdout | args[i] | args[lo:hi] | args[lo:] |
// args[:hi] | args[:]. The tokenizer splits "args[1]" into "args[1]"? No:
// '[' and ']' and ':' are breaks, so we see "args" "[" "1" "]" etc.
func (p *rparser) parseIORef() (IORef, error) {
	switch p.peek() {
	case "stdin":
		p.next()
		return IORef{Kind: IOStdin}, nil
	case "stdout":
		p.next()
		return IORef{Kind: IOStdout}, nil
	case "args", "arg":
		p.next()
		if err := p.expect("["); err != nil {
			return IORef{}, err
		}
		lo, hasLo := 0, false
		hi := -1
		if n, ok := operandIndex(p.peek()); ok {
			lo, hasLo = n, true
			p.next()
		}
		if p.peek() == ":" {
			p.next()
			if n, ok := operandIndex(p.peek()); ok {
				hi = n
				p.next()
			}
			if err := p.expect("]"); err != nil {
				return IORef{}, err
			}
			return IORef{Kind: IOArgs, Lo: lo, Hi: hi}, nil
		}
		if !hasLo {
			return IORef{}, fmt.Errorf("annot: line %d: expected index in args[...]", p.line())
		}
		if err := p.expect("]"); err != nil {
			return IORef{}, err
		}
		return IORef{Kind: IOArg, Lo: lo}, nil
	}
	return IORef{}, fmt.Errorf("annot: line %d: expected io ref, got %q", p.line(), p.peek())
}

// operandIndex parses a bound of args[...]: operands count from 0, so a
// negative bound is not an index (and would index before the operands).
func operandIndex(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

func isCommandName(s string) bool {
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '-' && r != '_' && r != '.' && r != '/' {
			return false
		}
	}
	return s != "" && !strings.HasPrefix(s, "-")
}
