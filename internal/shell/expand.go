package shell

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Env is a shell variable environment. A scope chain shares one lock,
// so concurrent readers and writers — background jobs snapshotting the
// environment while the foreground installs command-scoped assignment
// prefixes, pipeline stages running in child scopes — never race on the
// underlying maps. (Which value a concurrently-spawned background job
// observes is inherently timing-dependent, as in a real shell; the lock
// only rules out map corruption.)
type Env struct {
	mu *sync.RWMutex // shared across the whole scope chain
	// gen counts the Sets and Unsets made anywhere in the chain (under
	// mu): two Snapshots with one generation hold the same variables.
	gen    *uint64
	vars   map[string]string
	parent *Env
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{mu: &sync.RWMutex{}, gen: new(uint64), vars: map[string]string{}}
}

// Child returns a scope that shadows e. Sets go to the child.
func (e *Env) Child() *Env {
	return &Env{mu: e.mu, gen: e.gen, vars: map[string]string{}, parent: e}
}

// Get looks a variable up through the scope chain. Missing variables
// expand to the empty string, as in the shell.
func (e *Env) Get(name string) string {
	v, _ := e.Lookup(name)
	return v
}

// Lookup is Get with a presence flag.
func (e *Env) Lookup(name string) (string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return "", false
}

// Set defines a variable in the innermost scope.
func (e *Env) Set(name, value string) {
	e.mu.Lock()
	e.vars[name] = value
	*e.gen++
	e.mu.Unlock()
}

// Unset removes a variable from the innermost scope (outer-scope
// definitions, if any, become visible again). It undoes a Set made in
// the same scope — the restore half of command-scoped assignments.
func (e *Env) Unset(name string) {
	e.mu.Lock()
	delete(e.vars, name)
	*e.gen++
	e.mu.Unlock()
}

// Generation identifies the current contents of the scope chain: it
// changes with every Set and Unset in any scope of it.
func (e *Env) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return *e.gen
}

// Snapshot copies the variables visible from e (inner scopes shadowing
// outer ones) into a fresh map, with the generation it was taken at.
func (e *Env) Snapshot() (map[string]string, uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]string, len(e.vars))
	for s := e; s != nil; s = s.parent {
		for k, v := range s.vars {
			if _, shadowed := out[k]; !shadowed {
				out[k] = v
			}
		}
	}
	return out, *e.gen
}

// ExpandError reports an expansion the engine refuses to perform (command
// substitution, unsupported special parameters).
type ExpandError struct {
	Msg string
}

func (e *ExpandError) Error() string { return "shell: expand: " + e.Msg }

// Expander controls word expansion.
type Expander struct {
	Env *Env
	// Glob enables pathname expansion relative to Dir.
	Glob bool
	Dir  string
	// CmdSub, when set, evaluates command substitutions $(...) and
	// returns their output (the caller strips trailing newlines, per
	// POSIX). When nil, command substitution is an expansion error —
	// the conservative static-analysis behaviour.
	CmdSub func(src string) (string, error)
	// Strict makes expansion of an undefined variable an error instead
	// of the empty string, and so is a word the shell would glob at run
	// time (an unquoted *, ? or [). Static analysis (the ahead-of-time
	// planner) uses it to detect dynamic words conservatively.
	Strict bool
	// Status, when set, gives the special parameter $?: the exit status
	// of the most recent pipeline. It is not a variable — setting one
	// would change Env for every command — and without Status, $? is
	// looked up in Env like any name (undefined, so dynamic to Strict).
	Status func() int
}

func (x *Expander) param(name string) (string, error) {
	if name == "?" && x.Status != nil {
		return strconv.Itoa(x.Status()), nil
	}
	v, ok := x.Env.Lookup(name)
	if !ok && x.Strict {
		return "", &ExpandError{Msg: "undefined variable $" + name}
	}
	return v, nil
}

func (x *Expander) runCmdSub(src string) (string, error) {
	if x.CmdSub == nil {
		return "", &ExpandError{Msg: "command substitution is not supported by the expander"}
	}
	out, err := x.CmdSub(src)
	if err != nil {
		return "", err
	}
	return strings.TrimRight(out, "\n"), nil
}

// ExpandWord performs brace, parameter, and (optionally) pathname
// expansion plus field splitting, returning the resulting fields.
func (x *Expander) ExpandWord(w *Word) ([]string, error) {
	// A word that is one literal — a command name, a flag, most operands,
	// a single-quoted pattern — expands to itself: no brace, parameter,
	// split or glob pass has anything to do, and none is run.
	if len(w.Parts) == 1 {
		text, literal := "", false
		switch p := w.Parts[0].(type) {
		case *Lit:
			text, literal = p.Text, true
		case *SglQuoted:
			text, literal = p.Text, true
		}
		if literal && !((x.Glob || x.Strict) && strings.ContainsAny(text, "*?[")) {
			return []string{text}, nil
		}
	}
	// Brace expansion first, producing one or more words.
	words, err := expandBraces(w)
	if err != nil {
		return nil, err
	}
	var fields []string
	for _, bw := range words {
		fs, err := x.expandFields(bw)
		if err != nil {
			return nil, err
		}
		fields = append(fields, fs...)
	}
	if x.Glob {
		fields = x.globFields(fields)
	}
	return fields, nil
}

// ExpandString expands a word in a no-split context (assignment RHS,
// redirection target): the result is always exactly one string.
func (x *Expander) ExpandString(w *Word) (string, error) {
	if w == nil {
		return "", nil
	}
	var sb strings.Builder
	for _, p := range w.Parts {
		s, err := x.expandPartNoSplit(p)
		if err != nil {
			return "", err
		}
		sb.WriteString(s)
	}
	return sb.String(), nil
}

func (x *Expander) expandPartNoSplit(p WordPart) (string, error) {
	switch p := p.(type) {
	case *Lit:
		return p.Text, nil
	case *SglQuoted:
		return p.Text, nil
	case *DblQuoted:
		var sb strings.Builder
		for _, ip := range p.Parts {
			s, err := x.expandPartNoSplit(ip)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return sb.String(), nil
	case *Param:
		return x.param(p.Name)
	case *CmdSub:
		return x.runCmdSub(p.Src)
	case *BraceRange:
		// In a no-split context braces do not expand; print literally.
		return fmt.Sprintf("{%d..%d}", p.Lo, p.Hi), nil
	case *BraceList:
		var items []string
		for _, it := range p.Items {
			s, err := x.ExpandString(it)
			if err != nil {
				return "", err
			}
			items = append(items, s)
		}
		return "{" + strings.Join(items, ",") + "}", nil
	}
	return "", &ExpandError{Msg: fmt.Sprintf("unknown word part %T", p)}
}

// field assembly with split tracking: quoted segments never split.
type segment struct {
	text   string
	quoted bool
}

func (x *Expander) expandFields(w *Word) ([]string, error) {
	var segs []segment
	for _, p := range w.Parts {
		switch p := p.(type) {
		case *Lit:
			if x.Strict && strings.ContainsAny(p.Text, "*?[") {
				return nil, &ExpandError{Msg: "pattern " + p.Text + " is globbed at run time"}
			}
			segs = append(segs, segment{text: p.Text, quoted: true})
		case *SglQuoted:
			segs = append(segs, segment{text: p.Text, quoted: true})
		case *DblQuoted:
			var sb strings.Builder
			for _, ip := range p.Parts {
				s, err := x.expandPartNoSplit(ip)
				if err != nil {
					return nil, err
				}
				sb.WriteString(s)
			}
			segs = append(segs, segment{text: sb.String(), quoted: true})
		case *Param:
			v, err := x.param(p.Name)
			if err != nil {
				return nil, err
			}
			if x.Strict && strings.ContainsAny(v, "*?[") {
				return nil, &ExpandError{Msg: "$" + p.Name + " is globbed at run time"}
			}
			segs = append(segs, segment{text: v, quoted: false})
		case *CmdSub:
			out, err := x.runCmdSub(p.Src)
			if err != nil {
				return nil, err
			}
			segs = append(segs, segment{text: out, quoted: false})
		default:
			return nil, &ExpandError{Msg: fmt.Sprintf("unexpected part %T after brace expansion", p)}
		}
	}
	return joinAndSplit(segs), nil
}

// joinAndSplit implements POSIX field splitting with default IFS over the
// unquoted segments, while quoted segments glue to their neighbors.
func joinAndSplit(segs []segment) []string {
	var fields []string
	var cur strings.Builder
	started := false
	emit := func() {
		if started {
			fields = append(fields, cur.String())
			cur.Reset()
			started = false
		}
	}
	for _, s := range segs {
		if s.quoted {
			cur.WriteString(s.text)
			started = true
			continue
		}
		// Split unquoted text on IFS whitespace.
		t := s.text
		i := 0
		for i < len(t) {
			c := t[i]
			if c == ' ' || c == '\t' || c == '\n' {
				emit()
				i++
				continue
			}
			cur.WriteByte(c)
			started = true
			i++
		}
	}
	emit()
	return fields
}

func (x *Expander) globFields(fields []string) []string {
	var out []string
	for _, f := range fields {
		if !strings.ContainsAny(f, "*?[") {
			out = append(out, f)
			continue
		}
		pat := f
		if x.Dir != "" && !filepath.IsAbs(pat) {
			pat = filepath.Join(x.Dir, f)
		}
		matches, err := filepath.Glob(pat)
		if err != nil || len(matches) == 0 {
			out = append(out, f)
			continue
		}
		sort.Strings(matches)
		if x.Dir != "" {
			for i, m := range matches {
				if rel, err := filepath.Rel(x.Dir, m); err == nil {
					matches[i] = rel
				}
			}
		}
		out = append(out, matches...)
	}
	return out
}

// expandBraces rewrites a word containing BraceRange/BraceList parts into
// the cartesian product of plain words.
func expandBraces(w *Word) ([]*Word, error) {
	for i, p := range w.Parts {
		switch p := p.(type) {
		case *BraceRange:
			lo, hi := p.Lo, p.Hi
			step := 1
			if hi < lo {
				step = -1
			}
			var out []*Word
			for v := lo; ; v += step {
				nw := spliceWord(w, i, &Lit{Text: fmt.Sprintf("%d", v)})
				sub, err := expandBraces(nw)
				if err != nil {
					return nil, err
				}
				out = append(out, sub...)
				if v == hi {
					break
				}
			}
			return out, nil
		case *BraceList:
			var out []*Word
			for _, item := range p.Items {
				nw := spliceWordParts(w, i, item.Parts)
				sub, err := expandBraces(nw)
				if err != nil {
					return nil, err
				}
				out = append(out, sub...)
			}
			return out, nil
		}
	}
	return []*Word{w}, nil
}

func spliceWord(w *Word, i int, repl WordPart) *Word {
	return spliceWordParts(w, i, []WordPart{repl})
}

func spliceWordParts(w *Word, i int, repl []WordPart) *Word {
	parts := make([]WordPart, 0, len(w.Parts)-1+len(repl))
	parts = append(parts, w.Parts[:i]...)
	parts = append(parts, repl...)
	parts = append(parts, w.Parts[i+1:]...)
	return &Word{Parts: parts}
}
