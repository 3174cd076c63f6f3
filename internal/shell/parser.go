package shell

import (
	"fmt"
	"strings"
)

// Parse parses shell source into a List.
func Parse(src string) (*List, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	list, err := p.parseList(func(t token) bool { return t.kind == tokEOF })
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s", p.tok.kind)
	}
	if err := validateCmdSubs(list); err != nil {
		return nil, err
	}
	return list, nil
}

// validateCmdSubs recursively parses every command substitution body:
// a substitution that cannot parse could never execute (expansion
// re-parses it), so rejecting it up front turns a guaranteed runtime
// failure into a parse error — and guarantees the printer can always
// re-embed the body as $(...). The body must also scan cleanly under
// the $( paren matcher (quote-aware, see lexer.matchParen): a body
// reachable only through backquotes whose re-embedding $(body) would
// terminate early or never (an unquoted stray paren) cannot be printed
// faithfully, so it is rejected where a quoted paren is accepted.
func validateCmdSub(src string) error {
	if matchParen("("+src+")") != len(src)+1 {
		return &SyntaxError{Line: 1, Msg: fmt.Sprintf("unbalanced parens in command substitution `%s`", src)}
	}
	if _, err := Parse(src); err != nil {
		return &SyntaxError{Line: 1, Msg: fmt.Sprintf("bad command substitution $(%s): %v", src, err)}
	}
	return nil
}

func validateCmdSubs(n Node) error {
	switch n := n.(type) {
	case nil:
		return nil
	case *Word:
		if n == nil {
			return nil
		}
		for _, p := range n.Parts {
			switch p := p.(type) {
			case *CmdSub:
				if err := validateCmdSub(p.Src); err != nil {
					return err
				}
			case *DblQuoted:
				for _, ip := range p.Parts {
					if cs, ok := ip.(*CmdSub); ok {
						if err := validateCmdSub(cs.Src); err != nil {
							return err
						}
					}
				}
			case *BraceList:
				for _, it := range p.Items {
					if err := validateCmdSubs(it); err != nil {
						return err
					}
				}
			}
		}
	case *List:
		if n == nil {
			return nil
		}
		for _, it := range n.Items {
			if err := validateCmdSubs(it.Cmd); err != nil {
				return err
			}
		}
	case *Simple:
		for _, a := range n.Assigns {
			if err := validateCmdSubs(a.Value); err != nil {
				return err
			}
		}
		for _, w := range n.Args {
			if err := validateCmdSubs(w); err != nil {
				return err
			}
		}
		for _, r := range n.Redirs {
			if err := validateCmdSubs(r.Target); err != nil {
				return err
			}
		}
	case *Pipeline:
		for _, c := range n.Cmds {
			if err := validateCmdSubs(c); err != nil {
				return err
			}
		}
	case *AndOr:
		if err := validateCmdSubs(n.First); err != nil {
			return err
		}
		for _, p := range n.Rest {
			if err := validateCmdSubs(p.Cmd); err != nil {
				return err
			}
		}
	case *For:
		for _, w := range n.Items {
			if err := validateCmdSubs(w); err != nil {
				return err
			}
		}
		return validateCmdSubs(n.Body)
	case *If:
		if err := validateCmdSubs(n.Cond); err != nil {
			return err
		}
		if err := validateCmdSubs(n.Then); err != nil {
			return err
		}
		return validateCmdSubs(n.Else)
	case *While:
		if err := validateCmdSubs(n.Cond); err != nil {
			return err
		}
		return validateCmdSubs(n.Body)
	case *Subshell:
		return validateCmdSubs(n.Body)
	case *Brace:
		return validateCmdSubs(n.Body)
	}
	return nil
}

// ParseCommand parses source that must contain exactly one command.
func ParseCommand(src string) (Command, error) {
	list, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(list.Items) != 1 {
		return nil, &SyntaxError{Line: 1, Msg: "expected exactly one command"}
	}
	return list.Items[0].Cmd, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// skipNewlines consumes newline tokens.
func (p *parser) skipNewlines() error {
	for p.tok.kind == tokNewline {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// wordIs reports whether the current token is the given literal reserved word.
func (p *parser) wordIs(s string) bool {
	if p.tok.kind != tokWord {
		return false
	}
	return wordLitEq(p.tok.word, s)
}

// parseList parses a command list until the stop predicate matches (the
// stopping token is not consumed).
func (p *parser) parseList(stop func(token) bool) (*List, error) {
	list := &List{}
	for {
		if err := p.skipNewlines(); err != nil {
			return nil, err
		}
		if stop(p.tok) || p.tok.kind == tokEOF {
			return list, nil
		}
		cmd, err := p.parseAndOr()
		if err != nil {
			return nil, err
		}
		item := SeqItem{Cmd: cmd}
		switch p.tok.kind {
		case tokSemi:
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokAmp:
			item.Background = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokNewline:
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokEOF:
		default:
			if !stop(p.tok) {
				return nil, p.errf("unexpected %s after command", p.tok.kind)
			}
		}
		list.Items = append(list.Items, item)
	}
}

func (p *parser) parseAndOr() (Command, error) {
	first, err := p.parsePipeline()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokAndIf && p.tok.kind != tokOrIf {
		return first, nil
	}
	ao := &AndOr{First: first}
	for p.tok.kind == tokAndIf || p.tok.kind == tokOrIf {
		op := AndOp
		if p.tok.kind == tokOrIf {
			op = OrOp
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.skipNewlines(); err != nil {
			return nil, err
		}
		cmd, err := p.parsePipeline()
		if err != nil {
			return nil, err
		}
		ao.Rest = append(ao.Rest, AndOrPart{Op: op, Cmd: cmd})
	}
	return ao, nil
}

func (p *parser) parsePipeline() (Command, error) {
	negated := false
	if p.wordIs("!") {
		negated = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	first, err := p.parseCommand()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokPipe && !negated {
		return first, nil
	}
	pl := &Pipeline{Negated: negated, Cmds: []Command{first}}
	for p.tok.kind == tokPipe {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.skipNewlines(); err != nil {
			return nil, err
		}
		cmd, err := p.parseCommand()
		if err != nil {
			return nil, err
		}
		pl.Cmds = append(pl.Cmds, cmd)
	}
	return pl, nil
}

// parseBody parses the command list of a compound construct and
// rejects an empty one: the POSIX grammar requires non-empty compound
// lists ("while do done" is a syntax error in real shells), and the
// printer has no rendering for an empty body.
func (p *parser) parseBody(what string, stop func(token) bool) (*List, error) {
	list, err := p.parseList(stop)
	if err != nil {
		return nil, err
	}
	if len(list.Items) == 0 {
		return nil, p.errf("empty %s", what)
	}
	return list, nil
}

func (p *parser) parseCommand() (Command, error) {
	switch p.tok.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.parseBody("subshell body", func(t token) bool { return t.kind == tokRParen })
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ) to close subshell")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.withRedirs(&Subshell{Body: body})
	case tokWord:
		switch {
		case p.wordIs("for"):
			return p.parseFor()
		case p.wordIs("if"):
			return p.parseIf()
		case p.wordIs("while"), p.wordIs("until"):
			return p.parseWhile()
		case p.wordIs("{"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			body, err := p.parseBody("brace group body", func(t token) bool {
				return t.kind == tokWord && wordLitEq(t.word, "}")
			})
			if err != nil {
				return nil, err
			}
			if !p.wordIs("}") {
				return nil, p.errf("expected } to close brace group")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.withRedirs(&Brace{Body: body})
		}
		return p.parseSimple()
	case tokLess, tokGreat, tokDGreat, tokLessAnd, tokGreatAnd, tokDLess:
		return p.parseSimple()
	}
	return nil, p.errf("unexpected %s at start of command", p.tok.kind)
}

// wordLitEq reports whether w is the reserved word s: only bare words
// (unquoted, unescaped single literals) are recognized, so '{', \{ or
// "done" stay ordinary arguments, per POSIX.
func wordLitEq(w *Word, s string) bool {
	if !w.Bare {
		return false
	}
	lit, ok := w.Literal()
	return ok && lit == s
}

// withRedirs attaches trailing redirections to a compound command by
// wrapping it: compound redirections are recorded on a synthetic Simple
// via a Brace? We instead disallow them for simplicity, except that they
// commonly appear on subshells; in that case we keep them on a wrapper.
func (p *parser) withRedirs(cmd Command) (Command, error) {
	// Trailing redirections on compound commands are rare in PaSh's
	// benchmark set; reject them explicitly rather than silently
	// mis-parsing.
	switch p.tok.kind {
	case tokLess, tokGreat, tokDGreat, tokLessAnd, tokGreatAnd, tokDLess:
		return nil, p.errf("redirections on compound commands are not supported")
	}
	return cmd, nil
}

func (p *parser) parseFor() (Command, error) {
	if err := p.advance(); err != nil { // consume "for"
		return nil, err
	}
	if p.tok.kind != tokWord {
		return nil, p.errf("expected variable name after for")
	}
	name, ok := p.tok.word.Literal()
	if !ok || !isName(name) {
		return nil, p.errf("invalid for-loop variable")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.wordIs("in") {
		return nil, p.errf(`expected "in" in for loop (for name without "in" is unsupported)`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var items []*Word
	for p.tok.kind == tokWord && !p.wordIs("do") {
		items = append(items, p.tok.word)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	// Separator before do: ; or newline(s).
	if p.tok.kind == tokSemi {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.skipNewlines(); err != nil {
		return nil, err
	}
	if !p.wordIs("do") {
		return nil, p.errf(`expected "do" in for loop`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseBody("for-loop body", func(t token) bool {
		return t.kind == tokWord && wordLitEq(t.word, "done")
	})
	if err != nil {
		return nil, err
	}
	if !p.wordIs("done") {
		return nil, p.errf(`expected "done" to close for loop`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &For{Var: name, Items: items, Body: body}, nil
}

func (p *parser) parseIf() (Command, error) {
	if err := p.advance(); err != nil { // consume "if"/"elif"
		return nil, err
	}
	cond, err := p.parseBody("if condition", func(t token) bool {
		return t.kind == tokWord && wordLitEq(t.word, "then")
	})
	if err != nil {
		return nil, err
	}
	if !p.wordIs("then") {
		return nil, p.errf(`expected "then"`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	thenList, err := p.parseBody("then branch", func(t token) bool {
		return t.kind == tokWord && (wordLitEq(t.word, "elif") || wordLitEq(t.word, "else") || wordLitEq(t.word, "fi"))
	})
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: thenList}
	switch {
	case p.wordIs("elif"):
		sub, err := p.parseIf() // parseIf consumes "elif" like "if" and ends at "fi"
		if err != nil {
			return nil, err
		}
		node.Else = &List{Items: []SeqItem{{Cmd: sub}}}
		return node, nil
	case p.wordIs("else"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		elseList, err := p.parseBody("else branch", func(t token) bool {
			return t.kind == tokWord && wordLitEq(t.word, "fi")
		})
		if err != nil {
			return nil, err
		}
		node.Else = elseList
	}
	if !p.wordIs("fi") {
		return nil, p.errf(`expected "fi"`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) parseWhile() (Command, error) {
	until := p.wordIs("until")
	if err := p.advance(); err != nil {
		return nil, err
	}
	cond, err := p.parseBody("loop condition", func(t token) bool {
		return t.kind == tokWord && wordLitEq(t.word, "do")
	})
	if err != nil {
		return nil, err
	}
	if !p.wordIs("do") {
		return nil, p.errf(`expected "do"`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseBody("loop body", func(t token) bool {
		return t.kind == tokWord && wordLitEq(t.word, "done")
	})
	if err != nil {
		return nil, err
	}
	if !p.wordIs("done") {
		return nil, p.errf(`expected "done"`)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &While{Until: until, Cond: cond, Body: body}, nil
}

func (p *parser) parseSimple() (Command, error) {
	cmd := &Simple{}
	seenWord := false
	for {
		switch p.tok.kind {
		case tokWord:
			// Reserved words end a simple command only in command position,
			// which we are past once we have seen any element.
			if !seenWord && len(cmd.Assigns) == 0 && len(cmd.Redirs) == 0 {
				// Not reachable: parseCommand dispatches reserved words.
			}
			if name, val, ok := splitAssign(p.tok.word); ok && !seenWord {
				cmd.Assigns = append(cmd.Assigns, &Assign{Name: name, Value: val})
			} else {
				cmd.Args = append(cmd.Args, p.tok.word)
				seenWord = true
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokLess, tokGreat, tokDGreat, tokLessAnd, tokGreatAnd, tokDLess:
			r, err := p.parseRedir()
			if err != nil {
				return nil, err
			}
			cmd.Redirs = append(cmd.Redirs, r)
		default:
			if !seenWord && len(cmd.Assigns) == 0 && len(cmd.Redirs) == 0 {
				return nil, p.errf("expected command")
			}
			return cmd, nil
		}
	}
}

func (p *parser) parseRedir() (*Redir, error) {
	r := &Redir{N: p.tok.ioNum}
	switch p.tok.kind {
	case tokLess:
		r.Op = RedirIn
	case tokGreat:
		r.Op = RedirOut
	case tokDGreat:
		r.Op = RedirAppend
	case tokLessAnd:
		r.Op = RedirDupIn
	case tokGreatAnd:
		r.Op = RedirDupOut
	case tokDLess:
		r.Op = RedirHeredoc
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokWord {
		return nil, p.errf("expected redirection target")
	}
	r.Target = p.tok.word
	if r.Op == RedirHeredoc {
		delim, ok := r.Target.Literal()
		if !ok {
			return nil, p.errf("heredoc delimiter must be literal")
		}
		body, err := p.lex.readHeredoc(delim)
		if err != nil {
			return nil, err
		}
		r.Heredoc = body
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return r, nil
}

// readHeredoc consumes the heredoc body from the raw source: it skips to
// the end of the current line, then reads lines until one equals the
// delimiter. It must be called before any further tokens are read.
func (l *lexer) readHeredoc(delim string) (string, error) {
	nl := strings.IndexByte(l.src[l.pos:], '\n')
	if nl < 0 {
		return "", l.errf("heredoc without body")
	}
	// Note: anything between the delimiter word and end of line is lost for
	// the heredoc body scan; POSIX allows more redirections there but we
	// keep the common case (heredoc last on the line).
	bodyStart := l.pos + nl + 1
	rest := l.src[bodyStart:]
	var b strings.Builder
	for len(rest) > 0 {
		lineEnd := strings.IndexByte(rest, '\n')
		var line string
		if lineEnd < 0 {
			line = rest
			rest = ""
		} else {
			line = rest[:lineEnd]
			rest = rest[lineEnd+1:]
		}
		if line == delim {
			consumed := len(l.src) - bodyStart - len(rest)
			l.line += strings.Count(l.src[bodyStart:bodyStart+consumed], "\n")
			// Splice the heredoc out of the remaining source.
			l.src = l.src[:l.pos+nl+1] + rest
			return b.String(), nil
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return "", l.errf("unterminated heredoc (missing %q)", delim)
}

// splitAssign checks whether a word is a name=value assignment and, if so,
// splits it. The name must be entirely within the first literal part.
func splitAssign(w *Word) (string, *Word, bool) {
	first, ok := w.Parts[0].(*Lit)
	if !ok {
		return "", nil, false
	}
	eq := strings.IndexByte(first.Text, '=')
	if eq <= 0 {
		return "", nil, false
	}
	name := first.Text[:eq]
	if !isName(name) {
		return "", nil, false
	}
	var valParts []WordPart
	if rest := first.Text[eq+1:]; rest != "" {
		valParts = append(valParts, &Lit{Text: rest})
	}
	valParts = append(valParts, w.Parts[1:]...)
	if len(valParts) == 0 {
		return name, nil, true
	}
	return name, &Word{Parts: valParts}, true
}

func isName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i], i == 0) {
			return false
		}
	}
	return true
}
