package benchscripts

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hostcheck"
	"repro/internal/paper"
)

// Differential conformance: the interpreter must produce byte-identical
// output to a real POSIX shell running the same script over the same
// inputs — at width 1 (plain interpretation) and width 8 (the full
// parallelizing pipeline: splits, framing, fusion, aggregation trees).
// A divergence is reported where the output first differs.

// conformanceCorpus lists the benches the suite covers: the Tab. 2
// one-liners, the full Unix50 set, and the shell-form scripts
// (heredocs, subshells). The diff bench is excluded:
// diff's hunk selection is implementation-defined (GNU applies
// cost-cutoff heuristics that produce legitimately different — larger
// or smaller — edit scripts than a minimal Myers diff), so its piped
// `grep -c '^>'` count cannot be compared byte-for-byte across
// implementations.
func conformanceCorpus() []paper.Bench {
	var out []paper.Bench
	for _, b := range append(corpus(), paper.ShellForms()...) {
		if b.Name == "diff" {
			continue
		}
		out = append(out, b)
	}
	return out
}

// TestShellFormsAgainstDashAndBash runs the heredoc/subshell corpus
// against *both* dash and bash, not just whichever the host offers
// first: heredoc expansion rules are where shells historically diverge,
// so agreeing with one shell is not enough.
func TestShellFormsAgainstDashAndBash(t *testing.T) {
	for _, sh := range []string{"dash", "bash"} {
		for _, b := range paper.ShellForms() {
			t.Run(sh+"/"+b.Name, func(t *testing.T) {
				conformsTo(t, sh, b)
			})
		}
	}
}

// TestConformanceAgainstSystemShell runs the corpus against the host's
// POSIX sh, dash where it is Debian's.
func TestConformanceAgainstSystemShell(t *testing.T) {
	for _, b := range conformanceCorpus() {
		t.Run(b.Name, func(t *testing.T) {
			conformsTo(t, "sh", b)
		})
	}
}

// conformsTo requires the bench's output and exit status at widths 1
// and 8 to be what the named shell prints and exits with for it, and
// skips a script that shell fails: one that exits other than with the
// bench's Status.
func conformsTo(t *testing.T, sh string, b paper.Bench) {
	p := prepare(t, b)
	host := hostcheck.Run(t, sh, p.dir, p.script, "")
	if host.Code != b.Status {
		t.Skipf("%s cannot run this script: exit %d: %s", sh, host.Code, strings.TrimSpace(host.Stderr))
	}
	for _, w := range []int{1, 8} {
		res, err := p.execute(core.DefaultOptions(w))
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if got := string(res.output); got != host.Stdout || res.code != host.Code {
			t.Errorf("width %d diverges from %s: exit %d (host %d), %s\nscript:\n%s", w, sh, res.code, host.Code, hostcheck.Diff(got, host.Stdout), p.script)
		}
	}
}
