package commands

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

func init() { register("grep", grep) }

// grepSpec is a parsed grep invocation.
type grepSpec struct {
	ignoreCase, invert, count, lineNums, quiet bool
	filesWithMatches, filesWithout             bool
	wordMatch, lineMatch                       bool
	fixed, onlyMatching                        bool
	forceName, suppressName                    bool
	maxCount                                   int
	patterns                                   []string
	operands                                   []string
}

// parseGrepArgs parses grep's argv. Errors are returned plain; the
// command path wraps them through ctx.Errorf.
func parseGrepArgs(args []string) (*grepSpec, error) {
	spec := &grepSpec{maxCount: -1}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if len(a) > 1 && a[0] == '-' && a != "--" {
			body := a[1:]
			if strings.HasPrefix(a, "--") {
				return nil, fmt.Errorf("unsupported flag %q", a)
			}
			for len(body) > 0 {
				c := body[0]
				body = body[1:]
				switch c {
				case 'i':
					spec.ignoreCase = true
				case 'v':
					spec.invert = true
				case 'c':
					spec.count = true
				case 'n':
					spec.lineNums = true
				case 'q':
					spec.quiet = true
				case 'l':
					spec.filesWithMatches = true
				case 'L':
					spec.filesWithout = true
				case 'w':
					spec.wordMatch = true
				case 'x':
					spec.lineMatch = true
				case 'F':
					spec.fixed = true
				case 'E', 'G':
					// Both map onto Go regexp syntax.
				case 'o':
					spec.onlyMatching = true
				case 'H':
					spec.forceName = true
				case 'h':
					spec.suppressName = true
				case 'm':
					val := body
					body = ""
					if val == "" {
						i++
						if i >= len(args) {
							return nil, fmt.Errorf("-m requires an argument")
						}
						val = args[i]
					}
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("invalid -m argument %q", val)
					}
					spec.maxCount = n
				case 'e':
					val := body
					body = ""
					if val == "" {
						i++
						if i >= len(args) {
							return nil, fmt.Errorf("-e requires an argument")
						}
						val = args[i]
					}
					spec.patterns = append(spec.patterns, val)
				default:
					return nil, fmt.Errorf("unsupported flag -%c", c)
				}
			}
			continue
		}
		if a == "--" {
			spec.operands = append(spec.operands, args[i+1:]...)
			break
		}
		spec.operands = append(spec.operands, a)
	}
	if len(spec.patterns) == 0 {
		if len(spec.operands) == 0 {
			return nil, fmt.Errorf("missing pattern")
		}
		spec.patterns = spec.operands[0:1]
		spec.operands = spec.operands[1:]
	}
	return spec, nil
}

// regexpMetaBytes are the characters that make a pattern a real regexp;
// a pattern free of them matches exactly like a fixed string.
const regexpMetaBytes = `\.+*?()|[]{}^$`

func plainPattern(p string) bool {
	return !strings.ContainsAny(p, regexpMetaBytes)
}

// asciiFold maps A-Z onto a-z and every other byte onto itself: what -i
// does to a fixed pattern, as GNU grep folds case under LC_ALL=C.
var asciiFold = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
		if 'A' <= i && i <= 'Z' {
			t[i] += 'a' - 'A'
		}
	}
	return t
}()

// compile builds the program's per-line predicate from its patterns.
//
// Fast path: fixed-string matching (-F, or patterns with no regexp
// metacharacters, and neither -w nor -o) runs on bytes.Contains/bytes.Equal with zero per-line
// allocations instead of compiling a regexp — on fixed patterns the
// stdlib substring search is several times faster than RE2's machine.
// Under -i a fixed pattern is folded to lower case and searched for
// through asciiFold: ASCII letters only, and no allocation either. A
// regexp under -i keeps RE2's Unicode folding.
//
// lit is set when the whole predicate is "the line contains this
// string": one fixed pattern, no -x, no -w. The kernel then searches
// blocks for it instead of asking every line.
//
// Otherwise the patterns are one leftmost-longest alternation, whose
// first group is the pattern's match: -x wraps it in ^…$, and else -w in
// a non-word byte or the line's edge on each side, as GNU grep's -x
// overrides -w.
func (g *grepProgram) compile() error {
	// -w and -o take the regexp path, where -F quotes each pattern.
	fixed := !g.wordMatch && !g.onlyMatching
	if fixed && !g.fixed {
		for _, p := range g.patterns {
			if !plainPattern(p) {
				fixed = false
				break
			}
		}
	}
	if fixed {
		var table *[256]byte
		if g.ignoreCase {
			table = &asciiFold
		}
		pats := make([]literal, len(g.patterns))
		for i, p := range g.patterns {
			needle := []byte(p)
			if table != nil {
				for j, c := range needle {
					needle[j] = table[c]
				}
			}
			pats[i] = newLiteral(needle, table)
		}
		lineMatch := g.lineMatch
		if len(pats) == 1 && !lineMatch && !g.wordMatch && len(pats[0].needle) > 0 && !bytes.Contains(pats[0].needle, newline) {
			g.lit = &pats[0]
		}
		g.match = func(line []byte) bool {
			for i := range pats {
				p := &pats[i]
				if lineMatch && p.equal(line) || !lineMatch && p.contains(line) {
					return true
				}
			}
			return false
		}
		return nil
	}
	alts := make([]string, len(g.patterns))
	for i, p := range g.patterns {
		if g.fixed {
			p = regexp.QuoteMeta(p)
			if g.ignoreCase {
				p = foldASCIIPattern(p)
			}
		} else if _, err := regexp.Compile(p); err != nil {
			return fmt.Errorf("invalid pattern %q: %v", p, err)
		}
		alts[i] = "(?:" + p + ")"
	}
	alt := strings.Join(alts, "|")
	compile := func(wrap string) (*regexp.Regexp, error) {
		if g.ignoreCase && !g.fixed {
			wrap = "(?i)" + wrap
		}
		re, err := regexp.Compile(wrap)
		if err != nil {
			return nil, fmt.Errorf("invalid pattern %q: %v", wrap, err)
		}
		re.Longest()
		return re, nil
	}
	wrap := "(" + alt + ")"
	switch {
	case g.lineMatch:
		wrap = "^" + wrap + "$"
	case g.wordMatch:
		// After a word -o searches on from the byte before its end, with
		// no ^: the byte that ends one word may begin the next.
		var err error
		if g.next, err = compile(`\W` + wrap + `(?:$|\W)`); err != nil {
			return err
		}
		wrap = `(?:^|\W)` + wrap + `(?:$|\W)`
	}
	re, err := compile(wrap)
	if err != nil {
		return err
	}
	g.re, g.match = re, re.Match
	return nil
}

// foldASCIIPattern makes a quoted pattern match each ASCII letter in
// either case and every other byte as itself, as the literal kernel's
// fold does: (?i) would fold É with é too.
func foldASCIIPattern(quoted string) string {
	var sb strings.Builder
	for i := 0; i < len(quoted); i++ {
		c := quoted[i]
		if lower := c | 0x20; 'a' <= lower && lower <= 'z' {
			sb.WriteString("[" + string(lower) + string(lower-0x20) + "]")
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// grepProgram is a compiled grep invocation: the parsed flags plus the
// per-line predicate.
type grepProgram struct {
	*grepSpec
	match  func(line []byte) bool
	lit    *literal       // non-nil: match is "contains lit" (compile)
	re     *regexp.Regexp // the regexp path's predicate; -o prints its first group
	next   *regexp.Regexp // -o -w: re after the first word, without ^
	silent bool           // -c -l -L -q: selected lines are counted, not printed
}

func parseGrepProgram(args []string) (*grepProgram, error) {
	spec, err := parseGrepArgs(args)
	if err != nil {
		return nil, err
	}
	g := &grepProgram{grepSpec: spec, silent: spec.count || spec.filesWithMatches || spec.filesWithout || spec.quiet}
	return g, g.compile()
}

// emit is grep's per-line body: it reports whether the line is selected
// and appends what grep prints for it — the line, or under -o each match,
// behind the file name and line number when given (name "", lineno 0:
// none); nothing under -c, -l and -q.
func (g *grepProgram) emit(out, line []byte, name string, lineno int) ([]byte, bool) {
	if g.match(line) == g.invert {
		return out, false
	}
	switch {
	case g.silent:
	case g.onlyMatching:
		out = g.appendMatches(out, line, name, lineno)
	default:
		out = appendGrepLine(out, line, name, lineno)
	}
	return out, true
}

// appendMatches appends what -o prints for a selected line: each match,
// left to right, as a line of its own, and no empty one, as GNU grep.
// Under -w a word's trailing separator is searched again, by next.
func (g *grepProgram) appendMatches(out, line []byte, name string, lineno int) []byte {
	if g.next == nil {
		for _, m := range g.re.FindAllSubmatchIndex(line, -1) {
			if m[3] > m[2] {
				out = appendGrepLine(out, line[m[2]:m[3]], name, lineno)
			}
		}
		return out
	}
	re, from := g.re, 0
	for from < len(line) {
		m := re.FindSubmatchIndex(line[from:])
		if m == nil {
			break
		}
		start, end := from+m[2], from+m[3]
		if end > start {
			out = appendGrepLine(out, line[start:end], name, lineno)
			end--
		}
		re, from = g.next, end
	}
	return out
}

func appendGrepLine(out, text []byte, name string, lineno int) []byte {
	if name != "" {
		out = append(append(out, name...), ':')
	}
	if lineno > 0 {
		out = append(strconv.AppendInt(out, int64(lineno), 10), ':')
	}
	return append(append(out, text...), '\n')
}

// kernelForm reports whether the kernel runs the invocation: plain line
// filtering — the pattern flags (-e -F -E -i -v -w -x) plus -h.
func (g *grepProgram) kernelForm() bool {
	return !(g.count || g.lineNums || g.quiet || g.filesWithMatches || g.filesWithout ||
		g.onlyMatching || g.forceName || g.maxCount >= 0)
}

func newGrepKernel(args []string) (Kernel, bool) {
	g, err := parseGrepProgram(args)
	if err != nil || !g.kernelForm() || !stdinOnly(g.operands) {
		return nil, false
	}
	return g.kernel(), true
}

// kernel wraps emit, grep's per-line body. When the predicate is one
// literal the block is searched for it instead (literalKernel), through
// the case fold under -i.
func (g *grepProgram) kernel() Kernel {
	matched := false
	lk := lineKernel{
		perLine: func(out, line []byte) []byte {
			out, sel := g.emit(out, line, "", 0)
			matched = matched || sel
			return out
		},
		status: func() error {
			if !matched {
				return &ExitError{Code: 1}
			}
			return nil
		},
	}
	if g.lit == nil {
		return &lk
	}
	// What emit would do, without asking it line by line: the lines that
	// hold the literal are selected, or under -v the lines that do not.
	k := &literalKernel{lineKernel: lk, lit: *g.lit}
	if g.invert {
		k.rest = func(out, lines []byte) []byte {
			matched = true
			return append(out, lines...)
		}
		return k
	}
	k.hit = func(out, line []byte, _ int) []byte {
		matched = true
		return append(append(out, line...), '\n')
	}
	if g.lit.table != nil {
		return k
	}
	// The tr ahead of this grep, when Compose hands it over: the block is
	// searched through tr's table, and only the lines printed, and the
	// partial ones, are translated.
	k.absorb = func(p *trProgram) bool {
		lit := newLiteral(g.lit.needle, &p.xlat)
		if !p.mapsLines() || lit.firstPre > 2 || lit.lastPre > 2 {
			return false
		}
		k.lit = lit
		var image []byte
		k.perLine = func(out, line []byte) []byte {
			image = p.translate(image[:0], line)
			return lk.perLine(out, image)
		}
		k.hit = func(out, line []byte, _ int) []byte {
			matched = true
			return append(p.translate(out, line), '\n')
		}
		return true
	}
	return k
}

// grep searches inputs for lines matching a pattern. Supported flags:
// -i (ignore case), -v (invert), -c (count), -n (line numbers),
// -q (quiet), -l and -L (names of the files with and without a match),
// -w (word match), -x (whole-line match), -F (fixed string), -E
// (extended regexp, the native Go syntax), -o (print matches only),
// -m NUM (stop after NUM), -e PAT (pattern), -H/-h (with/without
// filename prefixes).
//
// Patterns use Go's RE2 syntax, which covers the ERE subset the
// benchmarks rely on. Fixed-string patterns (explicit -F, or patterns
// without regexp metacharacters) bypass the regexp engine entirely.
func grep(ctx *Context) error {
	g, err := parseGrepProgram(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	showName := (len(g.operands) > 1 || g.forceName) && !g.suppressName
	if g.kernelForm() && !showName {
		return runKernel(ctx, g.kernel(), g.operands)
	}
	// What is left counts per file: line numbers, -c and -l totals, the
	// -m and -q stops, and the name in front of each printed line.
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	anyMatch := false

	files := g.operands
	if len(files) == 0 {
		files = []string{"-"}
	}
	stop := fmt.Errorf("grep: stopped early")
	var out []byte
	for _, file := range files {
		readers, cleanup, err := ctx.OpenInputs(sliceOf(file))
		if err != nil {
			return err
		}
		name := ""
		if showName {
			name = displayName(file)
		}
		matches, lineno := 0, 0
		err = EachLineReaders(readers, func(line []byte) error {
			lineno++
			n := 0
			if g.lineNums {
				n = lineno
			}
			var sel bool
			if out, sel = g.emit(out[:0], line, name, n); !sel {
				return nil
			}
			matches++
			if _, err := lw.Write(out); err != nil {
				return err
			}
			if g.quiet || g.filesWithMatches || g.filesWithout || g.maxCount >= 0 && matches >= g.maxCount {
				return stop
			}
			return nil
		})
		cleanup()
		if err != nil && err != stop {
			return err
		}
		anyMatch = anyMatch || matches > 0
		if g.count {
			row := strconv.Itoa(matches) + "\n"
			if showName {
				row = name + ":" + row
			}
			if err := lw.WriteString(row); err != nil {
				return err
			}
		}
		if g.filesWithMatches && matches > 0 || g.filesWithout && matches == 0 {
			if err := lw.WriteLine([]byte(displayName(file))); err != nil {
				return err
			}
		}
		if g.quiet && anyMatch {
			break
		}
	}
	if err := lw.Flush(); err != nil {
		return err
	}
	if !anyMatch {
		return &ExitError{Code: 1}
	}
	return nil
}

func sliceOf(name string) []string {
	if name == "-" {
		return nil
	}
	return []string{name}
}

func displayName(name string) string {
	if name == "-" {
		return "(standard input)"
	}
	return name
}
