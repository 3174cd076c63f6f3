package annot

import (
	"fmt"
	"strings"
)

// Record is the annotation record for one command: an ordered list of
// clauses, each guarded by a predicate over the command's options
// (Appendix A). The first matching clause classifies the invocation.
type Record struct {
	Name string
	// ValueOpts lists options that consume the following argument as
	// their value (e.g. cut's -d, head's -n). This is an extension over
	// the paper's grammar, needed to separate options from operands when
	// resolving concrete invocations; the real PaSh carries the same
	// information in its command specifications.
	ValueOpts map[string]bool
	Clauses   []Clause
}

// Clause is one `| predicate => assignment` arm of a record.
type Clause struct {
	Pred   Pred // nil for the `otherwise`/`_` arm
	Assign Assignment
}

// Assignment gives the parallelizability class and the I/O shape for a
// matching invocation: `(category, [inputs], [outputs])`.
type Assignment struct {
	Class   Class
	Inputs  []IORef
	Outputs []IORef
}

// IOKind discriminates IORef variants.
type IOKind int

// IORef variants.
const (
	IOStdin  IOKind = iota // stdin
	IOStdout               // stdout
	IOArg                  // args[i]
	IOArgs                 // args[lo:hi]; Hi = -1 means open-ended
)

// IORef names a command input or output position: stdin, stdout, a single
// operand index, or a slice of operands. Operand indices count only
// non-option arguments.
type IORef struct {
	Kind IOKind
	Lo   int
	Hi   int // exclusive; -1 = to end (IOArgs only)
}

func (r IORef) String() string {
	switch r.Kind {
	case IOStdin:
		return "stdin"
	case IOStdout:
		return "stdout"
	case IOArg:
		return fmt.Sprintf("args[%d]", r.Lo)
	case IOArgs:
		hi := ""
		if r.Hi >= 0 {
			hi = fmt.Sprintf("%d", r.Hi)
		}
		return fmt.Sprintf("args[%d:%s]", r.Lo, hi)
	}
	return "?"
}

// Pred is a predicate over the option multiset of an invocation.
type Pred interface {
	Eval(opts *OptionSet) bool
	String() string
}

// HasOpt matches when the option is present.
type HasOpt struct{ Opt string }

// ValueEq matches when the option is present with the given value.
type ValueEq struct {
	Opt string
	Val string
}

// Not negates a predicate.
type Not struct{ P Pred }

// And conjoins two predicates (the paper writes /\).
type And struct{ L, R Pred }

// Or disjoins two predicates (the paper writes \/).
type Or struct{ L, R Pred }

// Eval implementations.

func (p *HasOpt) Eval(o *OptionSet) bool { return o.Has(p.Opt) }
func (p *ValueEq) Eval(o *OptionSet) bool {
	v, ok := o.Value(p.Opt)
	return ok && v == p.Val
}
func (p *Not) Eval(o *OptionSet) bool { return !p.P.Eval(o) }
func (p *And) Eval(o *OptionSet) bool { return p.L.Eval(o) && p.R.Eval(o) }
func (p *Or) Eval(o *OptionSet) bool  { return p.L.Eval(o) || p.R.Eval(o) }

func (p *HasOpt) String() string  { return p.Opt }
func (p *ValueEq) String() string { return fmt.Sprintf("value %s = %s", p.Opt, p.Val) }
func (p *Not) String() string     { return "not " + p.P.String() }
func (p *And) String() string     { return fmt.Sprintf("(%s /\\ %s)", p.L, p.R) }
func (p *Or) String() string      { return fmt.Sprintf("(%s \\/ %s)", p.L, p.R) }

// OptionSet is the set of options (with any attached values) present in a
// concrete invocation, plus the remaining operands.
type OptionSet struct {
	opts     map[string]string // "-x" -> value ("" when none)
	present  map[string]bool
	Operands []string
	// Raw preserves the original argv (options + operands, in order).
	Raw []string
}

// Has reports whether the option occurs. Clustered short flags are split
// during parsing, so -rn registers both -r and -n.
func (o *OptionSet) Has(opt string) bool { return o.present[opt] }

// Value returns an option's attached value.
func (o *OptionSet) Value(opt string) (string, bool) {
	if !o.present[opt] {
		return "", false
	}
	return o.opts[opt], true
}

// Options returns the distinct options present, in no particular order.
func (o *OptionSet) Options() []string {
	out := make([]string, 0, len(o.present))
	for k := range o.present {
		out = append(out, k)
	}
	return out
}

// ParseArgs splits an argv (excluding the command name) into options and
// operands according to the record's ValueOpts. It follows POSIX
// conventions: "--" ends option processing; clustered short options split
// (-rn => -r -n); a value option consumes either the attached rest of its
// cluster (-f9 => -f 9) or the next argument; "--long=value" splits at
// '='.
func (rec *Record) ParseArgs(argv []string) *OptionSet {
	o := &OptionSet{
		opts:    map[string]string{},
		present: map[string]bool{},
		Raw:     append([]string(nil), argv...),
	}
	i := 0
	noMoreOpts := false
	for i < len(argv) {
		a := argv[i]
		switch {
		case noMoreOpts || a == "-" || len(a) == 0 || a[0] != '-':
			o.Operands = append(o.Operands, a)
			i++
		case a == "--":
			noMoreOpts = true
			i++
		case strings.HasPrefix(a, "--"):
			name, val := a, ""
			hasVal := false
			if eq := strings.IndexByte(a, '='); eq >= 0 {
				name, val, hasVal = a[:eq], a[eq+1:], true
			}
			if !hasVal && rec != nil && rec.ValueOpts[name] && i+1 < len(argv) {
				val = argv[i+1]
				i++
			}
			o.present[name] = true
			o.opts[name] = val
			i++
		default:
			// Short option cluster.
			rest := a[1:]
			for len(rest) > 0 {
				opt := "-" + rest[:1]
				rest = rest[1:]
				if rec != nil && rec.ValueOpts[opt] {
					if len(rest) > 0 {
						o.opts[opt] = rest
						rest = ""
					} else if i+1 < len(argv) {
						o.opts[opt] = argv[i+1]
						i++
					}
					o.present[opt] = true
					continue
				}
				o.present[opt] = true
				if _, ok := o.opts[opt]; !ok {
					o.opts[opt] = ""
				}
			}
			i++
		}
	}
	return o
}

// Invocation is the result of resolving a record against a concrete argv.
type Invocation struct {
	Name    string
	Class   Class
	Opts    *OptionSet
	Inputs  []StreamRef
	Outputs []StreamRef
}

// StreamKind discriminates StreamRef variants.
type StreamKind int

// StreamRef variants.
const (
	StreamStdin StreamKind = iota
	StreamStdout
	StreamFile
)

// StreamRef is a concrete input or output of an invocation: stdin, stdout,
// or a named file operand.
type StreamRef struct {
	Kind StreamKind
	Path string // for StreamFile
}

func (s StreamRef) String() string {
	switch s.Kind {
	case StreamStdin:
		return "stdin"
	case StreamStdout:
		return "stdout"
	default:
		return s.Path
	}
}

// Resolve classifies a concrete invocation: it parses argv into options
// and operands, finds the first clause whose predicate holds, and maps the
// clause's abstract IO refs onto the operands. Commands whose input refs
// select no operands default to reading stdin (the cat/grep convention).
func (rec *Record) Resolve(argv []string) *Invocation {
	opts := rec.ParseArgs(argv)
	inv := &Invocation{Name: rec.Name, Class: SideEffectful, Opts: opts}
	for _, cl := range rec.Clauses {
		if cl.Pred != nil && !cl.Pred.Eval(opts) {
			continue
		}
		inv.Class = cl.Assign.Class
		inv.Inputs = resolveRefs(cl.Assign.Inputs, opts.Operands, true)
		inv.Outputs = resolveRefs(cl.Assign.Outputs, opts.Operands, false)
		return inv
	}
	// No clause matched: conservative default.
	inv.Class = SideEffectful
	return inv
}

func resolveRefs(refs []IORef, operands []string, stdinFallback bool) []StreamRef {
	var out []StreamRef
	sawArgs := false
	for _, r := range refs {
		switch r.Kind {
		case IOStdin:
			out = append(out, StreamRef{Kind: StreamStdin})
		case IOStdout:
			out = append(out, StreamRef{Kind: StreamStdout})
		case IOArg:
			sawArgs = true
			if r.Lo < len(operands) {
				out = append(out, operandRef(operands[r.Lo]))
			}
		case IOArgs:
			sawArgs = true
			lo, hi := r.Lo, r.Hi
			if hi < 0 || hi > len(operands) {
				hi = len(operands)
			}
			for i := lo; i < hi; i++ {
				out = append(out, operandRef(operands[i]))
			}
		}
	}
	if stdinFallback && sawArgs && len(out) == 0 {
		// e.g. `grep pat` with no file operands reads stdin.
		out = append(out, StreamRef{Kind: StreamStdin})
	}
	return out
}

// operandRef maps a file operand to a stream reference; the conventional
// "-" operand means standard input.
func operandRef(op string) StreamRef {
	if op == "-" {
		return StreamRef{Kind: StreamStdin}
	}
	return StreamRef{Kind: StreamFile, Path: op}
}
