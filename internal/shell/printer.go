package shell

import (
	"fmt"
	"strings"
)

// Print renders an AST node back to shell source. The output is valid
// input for Parse and preserves quoting structure. Printing is a fixed
// point after one round trip: Parse(Print(n)) prints to the same text.
func Print(n Node) string {
	pr := &printer{}
	pr.node(n)
	pr.flushHeredocs()
	return pr.sb.String()
}

// printer carries the printing state: heredoc bodies attach after the
// current command line (that is where the shell grammar puts them), so
// they are collected while a line prints and flushed at separators.
type printer struct {
	sb strings.Builder
	// heredocs holds the redirections whose bodies are pending for the
	// current line, in operator order.
	heredocs []*Redir
	// atLineStart is true right after a heredoc flush: the output sits
	// at the start of a fresh line, and no ";" separator is needed (or
	// legal) before the next word.
	atLineStart bool
}

// flushHeredocs emits the pending heredoc bodies, leaving the output at
// the start of a fresh line.
func (pr *printer) flushHeredocs() {
	if len(pr.heredocs) == 0 {
		return
	}
	pending := pr.heredocs
	pr.heredocs = nil
	for _, r := range pending {
		delim, _ := r.Target.Literal()
		pr.sb.WriteString("\n")
		pr.sb.WriteString(r.Heredoc)
		pr.sb.WriteString(delim)
	}
	pr.sb.WriteString("\n")
	pr.atLineStart = true
}

// sep writes an inter-command separator: a flush of pending heredocs
// already separates (the newline after the delimiter), otherwise the
// given punctuation does.
func (pr *printer) sep(punct string) {
	if len(pr.heredocs) > 0 {
		pr.flushHeredocs()
		return
	}
	pr.sb.WriteString(punct)
	pr.atLineStart = false
}

func (pr *printer) node(n Node) {
	switch n := n.(type) {
	case *Word:
		pr.word(n)
	case *Simple:
		pr.simple(n)
	case *Pipeline:
		if n.Negated {
			pr.sb.WriteString("! ")
		}
		for i, c := range n.Cmds {
			if i > 0 {
				pr.sb.WriteString(" | ")
			}
			pr.node(c)
		}
	case *AndOr:
		pr.node(n.First)
		for _, part := range n.Rest {
			fmt.Fprintf(&pr.sb, " %s ", part.Op)
			pr.node(part.Cmd)
		}
	case *List:
		for i, it := range n.Items {
			if i > 0 && !pr.atLineStart {
				pr.sb.WriteString(" ")
			}
			pr.atLineStart = false
			pr.node(it.Cmd)
			if it.Background {
				pr.sb.WriteString(" &")
				pr.flushHeredocs()
			} else if i < len(n.Items)-1 {
				pr.sep(";")
			} else {
				pr.flushHeredocs()
			}
		}
	case *For:
		fmt.Fprintf(&pr.sb, "for %s in", n.Var)
		for _, w := range n.Items {
			pr.sb.WriteString(" ")
			if keywordText(w) == "do" {
				// A literal "do" item (parsed from \do or 'do') printed
				// bare would terminate the item list on re-parse.
				pr.sb.WriteString("'do'")
				continue
			}
			pr.word(w)
		}
		pr.sb.WriteString("; do ")
		pr.node(n.Body)
		pr.close(n.Body, "done")
	case *If:
		pr.sb.WriteString("if ")
		pr.node(n.Cond)
		pr.close(n.Cond, "then ")
		pr.node(n.Then)
		if n.Else != nil {
			pr.close(n.Then, "else ")
			pr.node(n.Else)
			pr.close(n.Else, "fi")
		} else {
			pr.close(n.Then, "fi")
		}
	case *While:
		if n.Until {
			pr.sb.WriteString("until ")
		} else {
			pr.sb.WriteString("while ")
		}
		pr.node(n.Cond)
		pr.close(n.Cond, "do ")
		pr.node(n.Body)
		pr.close(n.Body, "done")
	case *Subshell:
		pr.sb.WriteString("( ")
		pr.node(n.Body)
		if pr.atLineStart {
			pr.sb.WriteString(")")
		} else {
			pr.sb.WriteString(" )")
		}
		pr.atLineStart = false
	case *Brace:
		pr.sb.WriteString("{ ")
		pr.node(n.Body)
		pr.close(n.Body, "}")
	default:
		panic(fmt.Sprintf("shell: Print: unknown node %T", n))
	}
}

// close writes the separator between a printed compound body and its
// closing keyword. A body whose last line ended with a heredoc flush
// (or a trailing " &", itself a separator) must not get a ";".
func (pr *printer) close(l *List, keyword string) {
	switch {
	case pr.atLineStart:
		// Fresh line after a heredoc body: the keyword stands alone.
	case len(l.Items) > 0 && l.Items[len(l.Items)-1].Background:
		pr.sb.WriteString(" ")
	default:
		pr.sb.WriteString("; ")
	}
	pr.sb.WriteString(keyword)
	pr.atLineStart = false
}

func (pr *printer) simple(n *Simple) {
	first := true
	sep := func() {
		if !first {
			pr.sb.WriteString(" ")
		}
		first = false
	}
	for _, a := range n.Assigns {
		sep()
		pr.sb.WriteString(a.Name)
		pr.sb.WriteString("=")
		if a.Value != nil {
			pr.word(a.Value)
		}
	}
	for i, w := range n.Args {
		cmdPos := first && i == 0
		sep()
		if cmdPos && keywordText(w) != "" {
			// A word like \done or !\<newline> parses to a plain literal,
			// but printed bare in command position it would re-read as
			// the reserved word. Quoting keeps it an ordinary argument
			// (the parser recognizes keywords only in bare form).
			pr.sb.WriteString("'" + keywordText(w) + "'")
			continue
		}
		pr.word(w)
	}
	for _, r := range n.Redirs {
		sep()
		if r.N >= 0 {
			fmt.Fprintf(&pr.sb, "%d", r.N)
		}
		pr.sb.WriteString(r.Op.String())
		pr.word(r.Target)
		if r.Op == RedirHeredoc {
			// The body belongs after this command line's newline; the
			// printer flushes it at the next separator.
			pr.heredocs = append(pr.heredocs, r)
		}
	}
}

func (pr *printer) word(w *Word) {
	sb := &pr.sb
	for i, p := range w.Parts {
		// An unbraced $name followed by a part starting with a name
		// character would swallow it on reparse; force braces there.
		if pp, ok := p.(*Param); ok && !pp.Braced && i+1 < len(w.Parts) {
			if startsWithNameByte(w.Parts[i+1]) {
				fmt.Fprintf(sb, "${%s}", pp.Name)
				continue
			}
		}
		switch p := p.(type) {
		case *Lit:
			sb.WriteString(quoteLit(p.Text))
		case *SglQuoted:
			sb.WriteString("'")
			sb.WriteString(p.Text)
			sb.WriteString("'")
		case *DblQuoted:
			sb.WriteString(`"`)
			for _, ip := range p.Parts {
				switch ip := ip.(type) {
				case *Lit:
					sb.WriteString(escapeDQ(ip.Text))
				case *Param:
					printParam(sb, ip)
				case *CmdSub:
					sb.WriteString("$(")
					sb.WriteString(ip.Src)
					sb.WriteString(")")
				default:
					panic(fmt.Sprintf("shell: Print: bad dquoted part %T", ip))
				}
			}
			sb.WriteString(`"`)
		case *Param:
			printParam(sb, p)
		case *CmdSub:
			sb.WriteString("$(")
			sb.WriteString(p.Src)
			sb.WriteString(")")
		case *BraceRange:
			fmt.Fprintf(sb, "{%d..%d}", p.Lo, p.Hi)
		case *BraceList:
			sb.WriteString("{")
			for i, it := range p.Items {
				if i > 0 {
					sb.WriteString(",")
				}
				// The lexer scans brace bodies verbatim (no escape
				// processing), so items print verbatim too: escaping
				// here would not survive a re-parse.
				if lit, ok := it.Literal(); ok {
					sb.WriteString(lit)
				} else {
					pr.word(it)
				}
			}
			sb.WriteString("}")
		default:
			panic(fmt.Sprintf("shell: Print: unknown word part %T", p))
		}
	}
}

// keywordText returns the word's literal text when printing it bare
// would re-parse as a reserved word ("" otherwise). Only words whose
// printed form has no escapes qualify — \{ already prints escaped and
// re-reads as non-bare.
func keywordText(w *Word) string {
	lit, ok := w.Literal()
	if !ok || lit != quoteLit(lit) {
		return ""
	}
	switch lit {
	case "if", "then", "elif", "else", "fi", "for", "while", "until",
		"do", "done", "!":
		return lit
	}
	return ""
}

// startsWithNameByte reports whether the part's leading character could
// extend a preceding unbraced parameter name. Literals are printed with
// metacharacters escaped, and a backslash cannot extend a name, so only
// plain name bytes matter.
func startsWithNameByte(p WordPart) bool {
	lit, ok := p.(*Lit)
	if !ok || lit.Text == "" {
		return false
	}
	return isNameByte(lit.Text[0], false)
}

func printParam(sb *strings.Builder, p *Param) {
	if p.Braced {
		fmt.Fprintf(sb, "${%s}", p.Name)
	} else {
		fmt.Fprintf(sb, "$%s", p.Name)
	}
}

// quoteLit escapes shell metacharacters in an unquoted literal so that
// re-parsing yields the same text. Pattern characters stay bare: in a
// Lit they were written unquoted, and the shell running the printed
// script globs them as it would have globbed the source.
func quoteLit(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case ' ', '\t', '\n', ';', '&', '|', '(', ')', '<', '>', '#',
			'\'', '"', '\\', '$', '`', '{', '}', '~':
			sb.WriteByte('\\')
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

func escapeDQ(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '"', '\\', '$', '`':
			sb.WriteByte('\\')
		}
		sb.WriteByte(c)
	}
	return sb.String()
}
