package annot

import (
	"strings"

	"repro/internal/commands"
)

// installRefiners attaches the semantic checks that the declarative DSL
// cannot express. They only ever *demote* an invocation to a less
// parallelizable class, never promote — keeping the conservative
// direction of the paper's analysis.
func installRefiners(r *Registry) {
	r.RegisterRefiner("sed", refineSed)
	r.RegisterRefiner("sort", refineSort)
	r.RegisterRefiner("uniq", refineUniq)
	r.RegisterRefiner("paste", refinePaste)
	r.RegisterRefiner("tr", refineTr)
}

// refineSed demotes sed invocations whose script is not a per-line map.
// A sed script is stateless only when each of its commands operates on
// the pattern space of a single line: s///, y///, p, d, and = are fine;
// anything touching the hold space (g G h H x), line addressing relative
// to position (N D P, numeric addresses, $), branching (b t :), or
// reading/writing files (r w) makes output depend on global line
// positions, so the invocation drops to NonParallelizable.
func refineSed(inv *Invocation) {
	if !inv.Class.DataParallelizable() {
		return
	}
	var scripts []string
	if v, ok := inv.Opts.Value("-e"); ok {
		scripts = append(scripts, v)
	}
	if _, ok := inv.Opts.Value("-f"); ok {
		// Script in a file: cannot inspect it here; be conservative.
		inv.Class = NonParallelizable
		return
	}
	if len(scripts) == 0 {
		if len(inv.Opts.Operands) == 0 {
			// No script at all: degenerate invocation, nothing to demote.
			return
		}
		scripts = append(scripts, inv.Opts.Operands[0])
	}
	for _, s := range scripts {
		if !sedScriptStateless(s) {
			inv.Class = NonParallelizable
			return
		}
	}
	// sed -n with only p/s///p remains a stateless filter; sed -n with
	// anything else already got demoted above.
}

// sedScriptStateless inspects a sed script for per-line-only commands.
func sedScriptStateless(script string) bool {
	for _, part := range strings.Split(script, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Reject explicit addresses: digits or $ before the command make
		// behaviour position-dependent.
		c := part[0]
		if c >= '0' && c <= '9' || c == '$' {
			return false
		}
		// A leading /regex/ address is fine (line-local); skip it.
		if c == '/' {
			end := indexUnescaped(part[1:], '/')
			if end < 0 {
				return false
			}
			part = strings.TrimSpace(part[end+2:])
			if part == "" {
				return false
			}
			c = part[0]
		}
		switch c {
		case 's', 'y':
			// substitution/transliteration: per-line.
		case 'p', 'd', '=':
			// print/delete/line-number: per-line behaviour ('=' prints
			// input line numbers which are positional — reject).
			if c == '=' {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func indexUnescaped(s string, c byte) int {
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

// refineSort demotes sort -R (random) and sort with unknown long flags
// that change output determinism.
func refineSort(inv *Invocation) {
	if inv.Opts.Has("-R") || inv.Opts.Has("--random-sort") {
		inv.Class = NonParallelizable
	}
}

// refineUniq demotes uniq invocations with an explicit output-file
// operand (uniq IN OUT writes a file: side-effectful in our model).
func refineUniq(inv *Invocation) {
	if len(inv.Opts.Operands) > 1 {
		inv.Class = SideEffectful
	}
}

// refinePaste demotes multi-input paste to pure: interleaving several
// streams consumes them in lockstep, which is not a per-line map over a
// single concatenated input. Single-input paste stays stateless.
func refinePaste(inv *Invocation) {
	if inv.Class == Stateless && len(inv.Opts.Operands) > 1 {
		inv.Class = Pure
	}
}

// refineTr demotes tr invocations that delete or rewrite newlines to
// pure. Stateless means a map over lines: every consumer of a stateless
// replica (a framed successor, a commutative map behind an absorbed
// round-robin merge, a stream window) relies on its chunks ending where
// lines end, and `tr -d '\n'` or `tr '\n' ' '` glues lines across chunk
// boundaries. Squeezing newlines keeps chunks line-aligned and stays
// stateless. The verdict is the command's own: annot does not read tr's
// SET grammar a second time.
func refineTr(inv *Invocation) {
	if inv.Class == Stateless && !commands.TrKeepsNewlines(inv.Opts.Raw) {
		inv.Class = Pure
	}
}
