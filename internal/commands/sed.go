package commands

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

func init() { register("sed", sed) }

// sed implements a practical subset of the stream editor: the s///
// substitution (with g, p, i flags and arbitrary delimiters), y///
// transliteration, p, d, q and = commands, optional /regex/, NUM, $,
// NUM,NUM and NUM,$ addresses, -n (suppress auto-print), and multiple -e
// scripts or a single script operand. Patterns use Go RE2 syntax with the common BRE
// group spelling \(...\) translated.
func sed(ctx *Context) error {
	p, err := parseSedProgram(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	if p.kernelForm() {
		return runKernel(ctx, p.kernel(), p.operands)
	}
	// What is left needs the line's position in the whole input: numeric
	// addresses, =, q, and the script forms that print other than one line
	// per line.
	readers, cleanup, err := ctx.OpenInputs(p.operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	lineNo := 0
	errQuit := fmt.Errorf("sed: quit")
	var out []byte
	emit := func(line []byte, last bool) error {
		lineNo++
		var quit bool
		out, quit = p.step(out[:0], line, lineNo, last)
		if _, err := lw.Write(out); err != nil {
			return err
		}
		if quit {
			return errQuit
		}
		return nil
	}
	// A $ address needs to know a line is the last one when it is run:
	// such a program runs one line behind its input.
	var held []byte
	holding := false
	err = EachLineReaders(readers, func(line []byte) error {
		if !p.readsLast() {
			return emit(line, false)
		}
		if holding {
			if err := emit(held, false); err != nil {
				return err
			}
		}
		held, holding = append(held[:0], line...), true
		return nil
	})
	if err == nil && holding {
		err = emit(held, true)
	}
	if err != nil && err != errQuit {
		return err
	}
	return lw.Flush()
}

// sedProgram is a parsed sed invocation: every -e script (or the script
// operand) compiled in order. It is the one reading of sed's grammar —
// the command, the kernel and the annotation verdict all ask it.
type sedProgram struct {
	cmds     []sedCmd
	suppress bool // -n
	operands []string
	// space holds the rewritten pattern space between two commands of one
	// step: a command reads one buffer and writes the other. A program is
	// run by one goroutine.
	space [2][]byte
}

// parseSedProgram parses sed's flags, resolves the script operand and
// compiles the scripts. Errors are returned plain; the command wraps
// them via ctx.Errorf.
func parseSedProgram(args []string) (*sedProgram, error) {
	p := &sedProgram{}
	var scripts []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-n":
			p.suppress = true
		case a == "-E" || a == "-r":
			// ERE selected; our engine is RE2 either way.
		case a == "-e":
			i++
			if i >= len(args) {
				return nil, fmt.Errorf("-e requires an argument")
			}
			scripts = append(scripts, args[i])
		case strings.HasPrefix(a, "-e"):
			scripts = append(scripts, a[2:])
		case a == "-i":
			return nil, fmt.Errorf("-i (in-place) is not supported")
		case a == "-" || !strings.HasPrefix(a, "-"):
			p.operands = append(p.operands, a)
		default:
			return nil, fmt.Errorf("unsupported flag %q", a)
		}
	}
	if len(scripts) == 0 {
		if len(p.operands) == 0 {
			return nil, fmt.Errorf("missing script")
		}
		scripts, p.operands = p.operands[:1], p.operands[1:]
	}
	for _, s := range scripts {
		cmds, err := parseSedScript(s)
		if err != nil {
			return nil, err
		}
		p.cmds = append(p.cmds, cmds...)
	}
	return p, nil
}

// readsLast reports whether a command is addressed by the last line.
func (p *sedProgram) readsLast() bool {
	for i := range p.cmds {
		if p.cmds[i].addrLast || p.cmds[i].addrToLast {
			return true
		}
	}
	return false
}

// lineMap reports whether the program is a map over lines: what it
// prints for a line depends on that line alone. s, y, p and d behind no
// address or a /regex/ one are; a numeric address or range, $, q and =
// read the line's position in the whole input.
func (p *sedProgram) lineMap() bool {
	for i := range p.cmds {
		c := &p.cmds[i]
		if !strings.ContainsRune("sypd", rune(c.op)) || c.addrLine > 0 || c.addrLast {
			return false
		}
	}
	return true
}

// SedIsLineMap reports whether a sed invocation maps each input line to
// its output independently of every other line, so that running it over
// line-aligned chunks and concatenating reproduces the whole run. The
// annotation library classifies sed by it, over all of the invocation's
// -e scripts. An invocation sed itself rejects (-f included) is not one:
// its usage error should come from one node, as at width 1.
func SedIsLineMap(args []string) bool {
	p, err := parseSedProgram(args)
	return err == nil && p.lineMap()
}

// kernelForm reports whether the kernel runs the program: a line map
// that prints exactly one line per line (s and y only, no s///p, no -n).
func (p *sedProgram) kernelForm() bool {
	for i := range p.cmds {
		if c := &p.cmds[i]; (c.op != 's' && c.op != 'y') || c.printSub {
			return false
		}
	}
	return !p.suppress && p.lineMap()
}

func newSedKernel(args []string) (Kernel, bool) {
	p, err := parseSedProgram(args)
	if err != nil || !p.kernelForm() || !stdinOnly(p.operands) {
		return nil, false
	}
	return p.kernel(), true
}

// kernel wraps step, sed's per-line body. A script that is one
// address-less s/LITERAL/REPL/ can only change the lines that contain
// LITERAL, so the block is searched for it (literalKernel): those lines
// go through step, everything between them is copied verbatim.
func (p *sedProgram) kernel() Kernel {
	lk := lineKernel{perLine: func(out, line []byte) []byte {
		out, _ = p.step(out, line, 0, false)
		return out
	}}
	if len(p.cmds) != 1 || p.cmds[0].lit == nil || p.cmds[0].addrRe != nil {
		return &lk
	}
	return &literalKernel{lineKernel: lk, needle: p.cmds[0].lit, hit: lk.perLine, rest: func(out, lines []byte) []byte {
		return append(out, lines...)
	}}
}

// step is sed's per-line body: it runs the script over one input line
// (the lineNo-th, and the last one if last), appends everything sed
// prints for it to out, and reports whether a q asked to stop after it. Nothing edits the pattern space in
// place, so it can start out as the input line itself; a command that
// rewrites it writes the new one into the program's spare buffer — or,
// when it is the last thing the script does to the line, straight into
// out.
func (p *sedProgram) step(out, line []byte, lineNo int, last bool) (_ []byte, quit bool) {
	pattern := line
	spare := 0 // the p.space buffer pattern does not alias
	for i := range p.cmds {
		c := &p.cmds[i]
		if !c.matches(pattern, lineNo, last) {
			continue
		}
		switch c.op {
		case 's', 'y':
			if i == len(p.cmds)-1 && !p.suppress && !c.printSub {
				if next, ok := c.rewrite(out, pattern); ok {
					return append(next, '\n'), quit
				}
				break
			}
			next, ok := c.rewrite(p.space[spare][:0], pattern)
			p.space[spare] = next
			if ok {
				pattern, spare = next, spare^1
				if c.printSub {
					out = append(append(out, pattern...), '\n')
				}
			}
		case 'p':
			out = append(append(out, pattern...), '\n')
		case 'd':
			return out, quit
		case 'q':
			quit = true
		case '=':
			out = append(strconv.AppendInt(out, int64(lineNo), 10), '\n')
		}
	}
	if !p.suppress {
		out = append(append(out, pattern...), '\n')
	}
	return out, quit
}

type sedCmd struct {
	op       byte
	addrRe   *regexp.Regexp // /re/ address
	addrLine int            // NUM address, or the start of a range; 0 = none
	addrEnd  int            // NUM,NUM: the range's last line; 0 = none
	// addrToLast is NUM,$: from addrLine to the end of input. addrLast is
	// $ alone: the last line only.
	addrToLast bool
	addrLast   bool
	re         *regexp.Regexp // for s
	lit        []byte         // for s: non-nil when the pattern is this fixed string, and re is not consulted
	repl       []byte         // for s, with & and \N markers resolved at run time
	global     bool
	printSub   bool
	from, to   []byte // for y
}

func (c *sedCmd) matches(line []byte, lineNo int, last bool) bool {
	switch {
	case c.addrRe != nil:
		return c.addrRe.Match(line)
	case c.addrToLast:
		return lineNo >= c.addrLine
	case c.addrEnd > 0:
		// A range whose end is not past its start is its first line.
		return lineNo == c.addrLine || (lineNo > c.addrLine && lineNo <= c.addrEnd)
	case c.addrLine > 0:
		return lineNo == c.addrLine
	case c.addrLast:
		return last
	}
	return true
}

// rewrite appends what an s or y command makes of line to dst and
// reports whether it made anything: an s whose pattern does not match
// leaves dst as it was.
func (c *sedCmd) rewrite(dst, line []byte) ([]byte, bool) {
	if c.op == 'y' {
		return c.transliterate(dst, line), true
	}
	return c.substitute(dst, line)
}

// substitute replaces the first match of the s command's pattern in
// line (every match under the g flag), expanding & and \1..\9. A fixed
// pattern is found with bytes.Index; a regexp runs once over the line.
func (c *sedCmd) substitute(dst, line []byte) ([]byte, bool) {
	if c.lit != nil {
		i := bytes.Index(line, c.lit)
		if i < 0 {
			return dst, false
		}
		for {
			end := i + len(c.lit)
			dst = append(dst, line[:i]...)
			dst = appendReplacement(dst, c.repl, line, []int{i, end})
			line = line[end:]
			if !c.global {
				break
			}
			if i = bytes.Index(line, c.lit); i < 0 {
				break
			}
		}
		return append(dst, line...), true
	}
	var matches [][]int
	if c.global {
		matches = c.re.FindAllSubmatchIndex(line, -1)
	} else if m := c.re.FindSubmatchIndex(line); m != nil {
		matches = [][]int{m}
	}
	if matches == nil {
		return dst, false
	}
	last := 0
	for _, m := range matches {
		dst = append(dst, line[last:m[0]]...)
		dst = appendReplacement(dst, c.repl, line, m)
		last = m[1]
		// Avoid infinite loops on empty matches.
		if m[0] == m[1] && last < len(line) {
			dst = append(dst, line[last])
			last++
		}
	}
	return append(dst, line[last:]...), true
}

func appendReplacement(out, repl, src []byte, m []int) []byte {
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		switch {
		case c == '&':
			out = append(out, src[m[0]:m[1]]...)
		case c == '\\' && i+1 < len(repl):
			nc := repl[i+1]
			i++
			if nc >= '1' && nc <= '9' {
				g := int(nc - '0')
				if 2*g+1 < len(m) && m[2*g] >= 0 {
					out = append(out, src[m[2*g]:m[2*g+1]]...)
				}
			} else if nc == 'n' {
				out = append(out, '\n')
			} else {
				out = append(out, nc)
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

func (c *sedCmd) transliterate(dst, line []byte) []byte {
	for _, b := range line {
		if j := bytes.IndexByte(c.from, b); j >= 0 {
			b = c.to[j]
		}
		dst = append(dst, b)
	}
	return dst
}

// parseSedScript parses semicolon/newline-separated sed commands.
func parseSedScript(script string) ([]sedCmd, error) {
	var cmds []sedCmd
	rest := script
	for {
		rest = strings.TrimLeft(rest, " \t\n;")
		if rest == "" {
			return cmds, nil
		}
		cmd, remaining, err := parseOneSedCmd(rest)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, *cmd)
		rest = remaining
	}
}

func parseOneSedCmd(s string) (*sedCmd, string, error) {
	cmd := &sedCmd{}
	// Optional address.
	switch {
	case s[0] == '/':
		end := unescapedIndex(s[1:], '/')
		if end < 0 {
			return nil, "", fmt.Errorf("sed: unterminated address in %q", s)
		}
		re, err := compileSedRegexp(s[1 : 1+end])
		if err != nil {
			return nil, "", err
		}
		cmd.addrRe = re
		s = strings.TrimLeft(s[2+end:], " \t")
	case s[0] >= '0' && s[0] <= '9':
		cmd.addrLine, s = leadingInt(s)
		if cmd.addrLine == 0 {
			return nil, "", fmt.Errorf("sed: invalid line address 0")
		}
		if s != "" && s[0] == ',' {
			s = strings.TrimLeft(s[1:], " \t")
			switch {
			case s != "" && s[0] == '$':
				cmd.addrToLast, s = true, s[1:]
			case s != "" && s[0] >= '0' && s[0] <= '9':
				cmd.addrEnd, s = leadingInt(s)
				cmd.addrEnd = max(cmd.addrEnd, 1) // N,0 is line N, like any end before the start
			default:
				return nil, "", fmt.Errorf("sed: unsupported address range end in %q (want N,M or N,$)", s)
			}
		}
		s = strings.TrimLeft(s, " \t")
	case s[0] == '$':
		cmd.addrLast = true
		s = strings.TrimLeft(s[1:], " \t")
	}
	if s == "" {
		return nil, "", fmt.Errorf("sed: missing command")
	}
	op := s[0]
	cmd.op = op
	switch op {
	case 's':
		if len(s) < 2 {
			return nil, "", fmt.Errorf("sed: bad s command")
		}
		delim := s[1]
		body := s[2:]
		i1 := unescapedIndex(body, delim)
		if i1 < 0 {
			return nil, "", fmt.Errorf("sed: unterminated s pattern")
		}
		i2rel := unescapedIndex(body[i1+1:], delim)
		if i2rel < 0 {
			return nil, "", fmt.Errorf("sed: unterminated s replacement")
		}
		i2 := i1 + 1 + i2rel
		pat, repl := body[:i1], body[i1+1:i2]
		rest := body[i2+1:]
		flagsEnd := 0
		ignoreCase := false
		for flagsEnd < len(rest) {
			c := rest[flagsEnd]
			if c == 'g' {
				cmd.global = true
			} else if c == 'p' {
				cmd.printSub = true
			} else if c == 'i' || c == 'I' {
				ignoreCase = true
			} else if c >= '1' && c <= '9' {
				// Nth-occurrence flag: unsupported, treat as error.
				return nil, "", fmt.Errorf("sed: numeric s flags are not supported")
			} else {
				break
			}
			flagsEnd++
		}
		if ignoreCase {
			pat = "(?i)" + translateSedPattern(pat, delim)
		} else {
			pat = translateSedPattern(pat, delim)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, "", fmt.Errorf("sed: bad pattern %q: %v", pat, err)
		}
		cmd.re = re
		if !ignoreCase && pat != "" && plainPattern(pat) && !strings.Contains(pat, "\n") {
			cmd.lit = []byte(pat)
		}
		cmd.repl = []byte(unescapeDelim(repl, delim))
		return cmd, rest[flagsEnd:], nil
	case 'y':
		if len(s) < 2 {
			return nil, "", fmt.Errorf("sed: bad y command")
		}
		delim := s[1]
		body := s[2:]
		i1 := unescapedIndex(body, delim)
		if i1 < 0 {
			return nil, "", fmt.Errorf("sed: unterminated y source")
		}
		i2rel := unescapedIndex(body[i1+1:], delim)
		if i2rel < 0 {
			return nil, "", fmt.Errorf("sed: unterminated y dest")
		}
		i2 := i1 + 1 + i2rel
		cmd.from = []byte(unescapeDelim(body[:i1], delim))
		cmd.to = []byte(unescapeDelim(body[i1+1:i2], delim))
		if len(cmd.from) != len(cmd.to) {
			return nil, "", fmt.Errorf("sed: y strings have different lengths")
		}
		return cmd, body[i2+1:], nil
	case 'p', 'd', 'q', '=':
		return cmd, s[1:], nil
	}
	return nil, "", fmt.Errorf("sed: unsupported command %q", string(op))
}

// leadingInt splits s after its leading decimal digits.
func leadingInt(s string) (int, string) {
	j := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(s[:j])
	return n, s[j:]
}

// compileSedRegexp compiles an address pattern.
func compileSedRegexp(pat string) (*regexp.Regexp, error) {
	return regexp.Compile(translateSedPattern(pat, '/'))
}

// translateSedPattern converts the common BRE spellings to RE2: \( \) \{
// \} \| \+ \? become their ERE forms, and an escaped delimiter becomes the
// literal character.
func translateSedPattern(pat string, delim byte) string {
	var sb strings.Builder
	for i := 0; i < len(pat); i++ {
		c := pat[i]
		if c == '\\' && i+1 < len(pat) {
			nc := pat[i+1]
			switch nc {
			case '(', ')', '{', '}', '|', '+', '?':
				sb.WriteByte(nc)
				i++
				continue
			case delim:
				if isRegexpMeta(nc) {
					sb.WriteByte('\\')
				}
				sb.WriteByte(nc)
				i++
				continue
			}
			sb.WriteByte(c)
			sb.WriteByte(nc)
			i++
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

func isRegexpMeta(c byte) bool {
	switch c {
	case '.', '*', '+', '?', '(', ')', '[', ']', '{', '}', '^', '$', '|', '\\':
		return true
	}
	return false
}

func unescapeDelim(s string, delim byte) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) && s[i+1] == delim {
			sb.WriteByte(delim)
			i++
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

func unescapedIndex(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == c {
			return i
		}
	}
	return -1
}
