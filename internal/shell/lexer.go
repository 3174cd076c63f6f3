package shell

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexer token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokWord
	tokNewline
	tokSemi     // ;
	tokAmp      // &
	tokPipe     // |
	tokAndIf    // &&
	tokOrIf     // ||
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // { as a reserved word
	tokRBrace   // } as a reserved word
	tokLess     // <
	tokGreat    // >
	tokDGreat   // >>
	tokLessAnd  // <&
	tokGreatAnd // >&
	tokDLess    // <<
	tokBang     // !
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokWord:
		return "word"
	case tokNewline:
		return "newline"
	case tokSemi:
		return ";"
	case tokAmp:
		return "&"
	case tokPipe:
		return "|"
	case tokAndIf:
		return "&&"
	case tokOrIf:
		return "||"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokLess:
		return "<"
	case tokGreat:
		return ">"
	case tokDGreat:
		return ">>"
	case tokLessAnd:
		return "<&"
	case tokGreatAnd:
		return ">&"
	case tokDLess:
		return "<<"
	case tokBang:
		return "!"
	}
	return "?"
}

// token is a lexer token. Word tokens carry their parsed parts.
type token struct {
	kind  tokKind
	word  *Word
	ioNum int // fd prefix for redirection tokens, -1 if none
	pos   int // byte offset, for error messages
	line  int
}

// lexer scans shell source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// Error reporting with position context.

// SyntaxError describes a lexing or parsing failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("shell: line %d: %s", e.Line, e.Msg)
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

// skipBlanksAndComments consumes spaces, tabs, line continuations, and
// comments (to end of line, not the newline itself).
func (l *lexer) skipBlanksAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t':
			l.pos++
		case c == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n':
			l.pos += 2
			l.line++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isWordBreak(c byte) bool {
	switch c {
	case ' ', '\t', '\n', ';', '&', '|', '(', ')', '<', '>', '#':
		return true
	}
	return false
}

func isDigitRun(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipBlanksAndComments()
	start := l.pos
	startLine := l.line
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start, line: startLine, ioNum: -1}, nil
	}
	c := l.src[l.pos]
	mk := func(k tokKind, n int) token {
		l.pos += n
		return token{kind: k, pos: start, line: startLine, ioNum: -1}
	}
	switch c {
	case '\n':
		l.advance()
		return token{kind: tokNewline, pos: start, line: startLine, ioNum: -1}, nil
	case ';':
		return mk(tokSemi, 1), nil
	case '&':
		if strings.HasPrefix(l.src[l.pos:], "&&") {
			return mk(tokAndIf, 2), nil
		}
		return mk(tokAmp, 1), nil
	case '|':
		if strings.HasPrefix(l.src[l.pos:], "||") {
			return mk(tokOrIf, 2), nil
		}
		return mk(tokPipe, 1), nil
	case '(':
		return mk(tokLParen, 1), nil
	case ')':
		return mk(tokRParen, 1), nil
	case '<':
		if strings.HasPrefix(l.src[l.pos:], "<<") {
			return mk(tokDLess, 2), nil
		}
		if strings.HasPrefix(l.src[l.pos:], "<&") {
			return mk(tokLessAnd, 2), nil
		}
		return mk(tokLess, 1), nil
	case '>':
		if strings.HasPrefix(l.src[l.pos:], ">>") {
			return mk(tokDGreat, 2), nil
		}
		if strings.HasPrefix(l.src[l.pos:], ">&") {
			return mk(tokGreatAnd, 2), nil
		}
		return mk(tokGreat, 1), nil
	}

	// Word (possibly an IO-number prefix of a redirection, e.g. 2>).
	w, err := l.lexWord()
	if err != nil {
		return token{}, err
	}
	tok := token{kind: tokWord, word: w, pos: start, line: startLine, ioNum: -1}
	if lit, ok := w.Literal(); ok && isDigitRun(lit) {
		if b, ok := l.peekByte(); ok && (b == '<' || b == '>') {
			// IO number: attach to following redirection token.
			n := 0
			for i := 0; i < len(lit); i++ {
				n = n*10 + int(lit[i]-'0')
			}
			rt, err := l.next()
			if err != nil {
				return token{}, err
			}
			switch rt.kind {
			case tokLess, tokGreat, tokDGreat, tokLessAnd, tokGreatAnd, tokDLess:
				rt.ioNum = n
				return rt, nil
			default:
				return token{}, l.errf("expected redirection after io number %q", lit)
			}
		}
	}
	return tok, nil
}

// lexWord scans one word, handling quoting and expansions.
func (l *lexer) lexWord() (*Word, error) {
	var parts []WordPart
	var lit strings.Builder
	quoted := false // any escape or quoting seen: the word is not bare
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, &Lit{Text: lit.String()})
			lit.Reset()
		}
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isWordBreak(c) {
			break
		}
		switch c {
		case '\\':
			quoted = true
			l.pos++
			if l.pos >= len(l.src) {
				lit.WriteByte('\\')
				break
			}
			e := l.advance()
			if e == '\n' {
				continue // line continuation
			}
			if e == '*' || e == '?' || e == '[' {
				// An escaped pattern character stays quoted in the AST, so
				// a Lit's *, ? and [ are the ones a shell globs.
				flush()
				parts = append(parts, &SglQuoted{Text: string(e)})
				continue
			}
			lit.WriteByte(e)
		case '\'':
			flush()
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '\'')
			if end < 0 {
				return nil, l.errf("unterminated single quote")
			}
			text := l.src[l.pos : l.pos+end]
			l.line += strings.Count(text, "\n")
			l.pos += end + 1
			parts = append(parts, &SglQuoted{Text: text})
		case '"':
			flush()
			p, err := l.lexDoubleQuoted()
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		case '$':
			flush()
			p, err := l.lexDollar()
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		case '`':
			flush()
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '`')
			if end < 0 {
				return nil, l.errf("unterminated backquote")
			}
			src := l.src[l.pos : l.pos+end]
			l.line += strings.Count(src, "\n")
			l.pos += end + 1
			parts = append(parts, &CmdSub{Src: src})
		case '{':
			if p, n, ok := scanBrace(l.src[l.pos:]); ok {
				flush()
				parts = append(parts, p)
				l.pos += n
				continue
			}
			lit.WriteByte(c)
			l.pos++
		default:
			lit.WriteByte(c)
			l.pos++
		}
	}
	flush()
	if len(parts) == 0 {
		return nil, l.errf("empty word")
	}
	w := &Word{Parts: parts}
	if !quoted && len(parts) == 1 {
		if _, ok := parts[0].(*Lit); ok {
			w.Bare = true
		}
	}
	return w, nil
}

func (l *lexer) lexDoubleQuoted() (WordPart, error) {
	l.pos++ // opening quote
	var parts []WordPart
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, &Lit{Text: lit.String()})
			lit.Reset()
		}
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			flush()
			return &DblQuoted{Parts: parts}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				lit.WriteByte('\\')
				continue
			}
			e := l.advance()
			switch e {
			case '$', '`', '"', '\\':
				lit.WriteByte(e)
			case '\n':
				// line continuation
			default:
				lit.WriteByte('\\')
				lit.WriteByte(e)
			}
		case '$':
			flush()
			p, err := l.lexDollar()
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		case '`':
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '`')
			if end < 0 {
				return nil, l.errf("unterminated backquote")
			}
			flush()
			src := l.src[l.pos : l.pos+end]
			l.line += strings.Count(src, "\n")
			l.pos += end + 1
			parts = append(parts, &CmdSub{Src: src})
		default:
			lit.WriteByte(l.advance())
		}
	}
	return nil, l.errf("unterminated double quote")
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func (l *lexer) lexDollar() (WordPart, error) {
	l.pos++ // $
	if l.pos >= len(l.src) {
		return &Lit{Text: "$"}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '{':
		end := strings.IndexByte(l.src[l.pos:], '}')
		if end < 0 {
			return nil, l.errf("unterminated ${")
		}
		name := l.src[l.pos+1 : l.pos+end]
		if !braceableName(name) {
			// ${name:-word}, ${#name}, ${name%suffix}, ...: refused
			// rather than expanded as a parameter nobody set.
			return nil, l.errf("unsupported parameter expansion ${%s}", name)
		}
		l.pos += end + 1
		return &Param{Name: name, Braced: true}, nil
	case c == '(' && strings.HasPrefix(l.src[l.pos:], "(("):
		return nil, l.errf("unsupported arithmetic expansion $((")
	case c == '(':
		// $( ... ) with nesting, quote-aware: parens inside single or
		// double quotes (or backslash-escaped) do not count, matching
		// how the body will be re-lexed at expansion time.
		end := matchParen(l.src[l.pos:])
		if end < 0 {
			return nil, l.errf("unterminated $(")
		}
		src := l.src[l.pos+1 : l.pos+end]
		l.line += strings.Count(src, "\n")
		l.pos += end + 1
		return &CmdSub{Src: src}, nil
	case isNameByte(c, true):
		j := l.pos
		for j < len(l.src) && isNameByte(l.src[j], j > l.pos) {
			j++
		}
		name := l.src[l.pos:j]
		l.pos = j
		return &Param{Name: name}, nil
	case c >= '0' && c <= '9' || c == '#' || c == '?' || c == '@' || c == '*' || c == '!' || c == '$':
		l.pos++
		return &Param{Name: string(c)}, nil
	}
	return &Lit{Text: "$"}, nil
}

// braceableName reports whether ${name} is a plain parameter: a name,
// positional digits, or one special parameter.
func braceableName(name string) bool {
	switch {
	case name == "":
		return false
	case len(name) == 1 && strings.Contains("#?@*!$-", name):
		return true
	case isNameByte(name[0], true):
		for i := 1; i < len(name); i++ {
			if !isNameByte(name[i], false) {
				return false
			}
		}
		return true
	}
	return strings.Trim(name, "0123456789") == ""
}

// scanBrace attempts to scan a brace expansion ({lo..hi} or {a,b,c}) at the
// start of s. It returns the part, the number of bytes consumed, and
// whether it matched. Invalid brace syntax is left as a literal, matching
// shell behaviour.
func scanBrace(s string) (WordPart, int, bool) {
	if len(s) < 3 || s[0] != '{' {
		return nil, 0, false
	}
	end := strings.IndexByte(s, '}')
	if end < 0 {
		return nil, 0, false
	}
	body := s[1:end]
	if body == "" {
		return nil, 0, false
	}
	// A real shell's word ends at unquoted whitespace or an operator, so
	// a "brace" spanning one is not a brace expansion at all; quoting and
	// escape characters inside stay literal words too.
	if strings.ContainsAny(body, " \t\n|&;<>(){}$`'\"\\") {
		return nil, 0, false
	}
	// Range: {int..int}
	if i := strings.Index(body, ".."); i > 0 {
		lo, ok1 := atoiOK(body[:i])
		hi, ok2 := atoiOK(body[i+2:])
		if ok1 && ok2 {
			return &BraceRange{Lo: lo, Hi: hi}, end + 1, true
		}
	}
	// List: {a,b,c} — only simple literal items, no nesting.
	if strings.ContainsRune(body, ',') {
		items := strings.Split(body, ",")
		ws := make([]*Word, len(items))
		for i, it := range items {
			ws[i] = LitWord(it)
		}
		return &BraceList{Items: ws}, end + 1, true
	}
	return nil, 0, false
}

// matchParen walks s — whose first byte must be an opening parenthesis
// — to the matching close, honoring single quotes, double quotes, and
// backslash escapes the way the body's expansion-time re-parse will.
// It returns the index of the matching ')' or -1.
func matchParen(s string) int {
	depth := 0
	inSQ, inDQ, esc := false, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case esc:
			esc = false
		case inSQ:
			if c == '\'' {
				inSQ = false
			}
		case inDQ:
			switch c {
			case '\\':
				esc = true
			case '"':
				inDQ = false
			}
		default:
			switch c {
			case '\\':
				esc = true
			case '\'':
				inSQ = true
			case '"':
				inDQ = true
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					return i
				}
			}
		}
	}
	return -1
}

func atoiOK(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	n := 0
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
