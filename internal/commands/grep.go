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
	filesWithMatches, wordMatch, lineMatch     bool
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

// buildGrepMatcher compiles the spec's patterns into a per-line
// predicate.
//
// Fast path: fixed-string matching (-F, or patterns with no regexp
// metacharacters) runs on bytes.Contains/bytes.Equal with zero per-line
// allocations instead of compiling a regexp — on fixed patterns the
// stdlib substring search is several times faster than RE2's machine.
// The case-insensitive fixed path keeps the Unicode-lowering behaviour
// (and its allocations) for compatibility.
//
// literal is non-nil when the whole predicate is "the line contains this
// string": one case-sensitive fixed pattern, no -x, no -w. The kernel
// then searches blocks for it instead of asking every line.
func buildGrepMatcher(spec *grepSpec) (match func(line []byte) bool, first *regexp.Regexp, literal []byte, err error) {
	fixed := spec.fixed
	if !fixed && !spec.wordMatch && !spec.onlyMatching && !spec.ignoreCase {
		fixed = true
		for _, p := range spec.patterns {
			if !plainPattern(p) {
				fixed = false
				break
			}
		}
	}
	if fixed {
		if !spec.ignoreCase {
			pats := make([][]byte, len(spec.patterns))
			for i, p := range spec.patterns {
				pats[i] = []byte(p)
			}
			lineMatch := spec.lineMatch
			if len(pats) == 1 && !lineMatch && !spec.wordMatch && len(pats[0]) > 0 && !bytes.Contains(pats[0], newline) {
				literal = pats[0]
			}
			return func(line []byte) bool {
				for _, p := range pats {
					if lineMatch && bytes.Equal(line, p) {
						return true
					}
					if !lineMatch && bytes.Contains(line, p) {
						return true
					}
				}
				return false
			}, nil, literal, nil
		}
		lowered := make([]string, len(spec.patterns))
		for i, p := range spec.patterns {
			lowered[i] = strings.ToLower(p)
		}
		lineMatch := spec.lineMatch
		return func(line []byte) bool {
			s := strings.ToLower(string(line))
			for _, p := range lowered {
				if lineMatch && s == p {
					return true
				}
				if !lineMatch && strings.Contains(s, p) {
					return true
				}
			}
			return false
		}, nil, nil, nil
	}
	var res []*regexp.Regexp
	for _, p := range spec.patterns {
		if spec.wordMatch {
			p = `(^|\W)(` + p + `)($|\W)`
		}
		if spec.lineMatch {
			p = `^(` + p + `)$`
		}
		if spec.ignoreCase {
			p = `(?i)` + p
		}
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("invalid pattern %q: %v", p, err)
		}
		res = append(res, re)
	}
	matcher := func(line []byte) bool {
		for _, re := range res {
			if re.Match(line) {
				return true
			}
		}
		return false
	}
	return matcher, res[0], nil, nil
}

// grepProgram is a compiled grep invocation: the parsed flags plus the
// per-line predicate.
type grepProgram struct {
	*grepSpec
	match   func(line []byte) bool
	literal []byte         // non-nil: match is "contains literal" (buildGrepMatcher)
	only    *regexp.Regexp // -o: print this pattern's matches, not the line
	silent  bool           // -c -l -q: selected lines are counted, not printed
}

func parseGrepProgram(args []string) (*grepProgram, error) {
	spec, err := parseGrepArgs(args)
	if err != nil {
		return nil, err
	}
	g := &grepProgram{grepSpec: spec, silent: spec.count || spec.filesWithMatches || spec.quiet}
	var first *regexp.Regexp
	if g.match, first, g.literal, err = buildGrepMatcher(spec); err != nil {
		return nil, err
	}
	if spec.onlyMatching {
		g.only = first
	}
	return g, nil
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
	case g.only != nil:
		for _, m := range g.only.FindAll(line, -1) {
			out = appendGrepLine(out, m, name, lineno)
		}
	default:
		out = appendGrepLine(out, line, name, lineno)
	}
	return out, true
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
	return !(g.count || g.lineNums || g.quiet || g.filesWithMatches ||
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
// literal the block is searched for it instead (literalKernel).
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
	if g.literal == nil {
		return &lk
	}
	// What emit would do, without asking it line by line: the lines that
	// hold the literal are selected, or under -v the lines that do not.
	k := &literalKernel{lineKernel: lk, needle: g.literal}
	if g.invert {
		k.rest = func(out, lines []byte) []byte {
			matched = true
			return append(out, lines...)
		}
	} else {
		k.hit = func(out, line []byte) []byte {
			matched = true
			return append(append(out, line...), '\n')
		}
	}
	return k
}

// grep searches inputs for lines matching a pattern. Supported flags:
// -i (ignore case), -v (invert), -c (count), -n (line numbers),
// -q (quiet), -l (names of matching files), -w (word match),
// -x (whole-line match), -F (fixed string), -E (extended regexp, the
// native Go syntax), -o (print matches only), -m NUM (stop after NUM),
// -e PAT (pattern), -H/-h (with/without filename prefixes).
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
			if g.quiet || g.filesWithMatches || g.maxCount >= 0 && matches >= g.maxCount {
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
		if g.filesWithMatches && matches > 0 {
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
