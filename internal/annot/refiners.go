package annot

import "repro/internal/commands"

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
	r.RegisterRefiner("xargs", refineXargs)
}

// refineSed demotes sed invocations that are not a map over lines to
// NonParallelizable. s///, y///, p and d behind no address or a /regex/
// one act on one line's pattern space alone (-n and s///p included: they
// only choose what is printed for that line); a numeric or $ address, q
// and = read the line's position in the whole input, and anything sed
// does not parse — hold space, branching, r/w, -f, unknown flags — is
// refused outright, so its usage error comes from one node as at width 1.
// The verdict is the command's own, over every -e script of the argv:
// annot does not read sed's script grammar a second time. A bare "sed"
// is the study's question about the command's default class, not an
// invocation: nothing to demote.
func refineSed(inv *Invocation) {
	if inv.Class.DataParallelizable() && len(inv.Opts.Raw) > 0 && !commands.SedIsLineMap(inv.Opts.Raw) {
		inv.Class = NonParallelizable
	}
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

// refineXargs demotes xargs to non-parallelizable unless it runs its
// command once per word (-n 1) or per line (-L 1, -I): a larger batch,
// the default one included, groups items across line boundaries, so a
// replica's batches are not width 1's. The verdict is the command's own
// (commands.XargsPerLine).
func refineXargs(inv *Invocation) {
	if inv.Class == Stateless && !commands.XargsPerLine(inv.Opts.Raw) {
		inv.Class = NonParallelizable
	}
}
