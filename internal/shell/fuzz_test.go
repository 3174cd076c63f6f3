package shell

import (
	"strings"
	"testing"
)

// Native go-fuzz targets for the shell front end. The invariants:
//
//   - Parse never panics, on any byte sequence.
//   - Expand never panics on anything Parse accepts.
//   - Print(Parse(src)) re-parses, and printing THAT parse reproduces
//     the same text — parse∘print is a fixed point after one step, so
//     the printer and parser agree on every construct the parser
//     accepts.
//
// The seed corpus is the benchmark corpus: the Tab. 2 one-liners and a
// cross-section of the Unix50 pipelines, plus constructs (heredocs,
// compound commands, substitutions, brace forms) the corpus exercises
// lightly. CI runs each target for a 30s smoke on every push.

// fuzzSeeds feeds the same corpus to all three targets. Scripts are
// inlined rather than imported from internal/paper's corpus: that
// package depends on core, which depends on this one.
var fuzzSeeds = []string{
	// Tab. 2 one-liners.
	`cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number).*(word|time|day|waltz)'`,
	`cat in.txt | tr A-Z a-z | sort`,
	`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100`,
	`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | grep -v '^$' | sort | uniq -c | sort -rn`,
	`cat in.txt | grep water | cut -d ' ' -f1`,
	`cat in.txt | iconv -f utf-8 -t ascii | tr -cs A-Za-z '\n' | tr A-Z a-z | tr -d '0-9' | sort | uniq | comm -23 - dict.txt`,
	`cat bin/PATHLIST | sed 's;^;bin/;' | file | grep -E 'script' | cut -d: -f1 | xargs -L 1 wc -l | sort -n | head -n 15`,
	"tr A-Z a-z < in1.txt | sort > s1.tmp\ntr A-Z a-z < in2.txt | sort > s2.tmp\ndiff s1.tmp s2.tmp | grep -c '^>'",
	"cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z > words.tmp\ntail -n +2 words.tmp > next.tmp\npaste -d ' ' words.tmp next.tmp | sort | uniq",
	`cut -d ' ' -f1 in1.txt | tr A-Z a-z | sort -u > sa.tmp`,
	`cat in.txt | tr ' ' '\n' | sort | sort -r`,
	// Unix50 cross-section.
	`cat in.txt | awk '{print $2, $0}' | sort -r | head -n 10`,
	`cat in.txt | sed 's/ /\n/g' | grep -v '^$' | sort | uniq -c | sort -n | tail -n 5`,
	`cat in.txt | rev | cut -c 1-5 | rev | sort | uniq -c | sort -rn | head -n 10`,
	`cat in.txt | fold -w 30 | grep a | wc -l`,
	// NOAA-style loop with substitutions and quoting.
	"base=\"ftp://host/noaa\";\nfor y in {2015..2019}; do\n curl -s $base/$y.index | grep gz | cut -d ' ' -f9 |\n sed \"s;^;$base/$y/;\" | xargs -n 1 curl -s | gunzip |\n cut -c 89-92 | grep -v 999 | sort -rn | head -n 1\ndone",
	// Shell constructs.
	`if grep -q x f; then echo yes; else echo no; fi`,
	`while read l; do echo "$l"; done`,
	`until false; do break; done`,
	`( cd /tmp; ls ) | wc -l`,
	`{ echo a; echo b; } | sort`,
	`! { X=1; }`,
	`foo=bar baz=$(echo hi) cmd arg`,
	`echo "a $x ${y} $(echo z) b" 'lit$x' plain\ word`,
	`cmd <<EOF
line one
line $two
EOF`,
	`a & b & wait`,
	`x=1; y="$x$x"; echo $x$y ${x}y`,
	`echo {a,b,c} {1..9} pre{x,y}post`,
	`true && false || echo done; echo $?`,
	`sort <f 2>err.log >>out.txt`,
	``,
	`#comment only`,
}

func seedAll(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
}

// FuzzParse: the parser must never panic; it either returns an AST or
// an error.
func FuzzParse(f *testing.F) {
	seedAll(f)
	f.Fuzz(func(t *testing.T, src string) {
		list, err := Parse(src)
		if err == nil && list == nil {
			t.Fatal("Parse returned nil list with nil error")
		}
	})
}

// FuzzExpand: word expansion must never panic on any parsed script.
// Expansion errors are fine; panics are not. Globbing is off (no
// filesystem access from the fuzzer) and command substitution uses a
// pure echo stand-in.
func FuzzExpand(f *testing.F) {
	seedAll(f)
	f.Fuzz(func(t *testing.T, src string) {
		list, err := Parse(src)
		if err != nil {
			return
		}
		env := NewEnv()
		env.Set("x", "xval")
		env.Set("base", "b")
		x := &Expander{
			Env: env,
			CmdSub: func(s string) (string, error) {
				return "sub:" + s, nil
			},
		}
		expandNode(x, list)
	})
}

// expandNode walks every word in the AST through the expander.
func expandNode(x *Expander, n Node) {
	switch n := n.(type) {
	case nil:
	case *List:
		for _, it := range n.Items {
			expandNode(x, it.Cmd)
		}
	case *Simple:
		for _, a := range n.Assigns {
			if a.Value != nil {
				x.ExpandString(a.Value)
			}
		}
		for _, w := range n.Args {
			x.ExpandWord(w)
		}
		for _, r := range n.Redirs {
			if r.Target != nil {
				x.ExpandString(r.Target)
			}
		}
	case *Pipeline:
		for _, c := range n.Cmds {
			expandNode(x, c)
		}
	case *AndOr:
		expandNode(x, n.First)
		for _, p := range n.Rest {
			expandNode(x, p.Cmd)
		}
	case *For:
		for _, w := range n.Items {
			x.ExpandWord(w)
		}
		expandNode(x, n.Body)
	case *If:
		expandNode(x, n.Cond)
		expandNode(x, n.Then)
		if n.Else != nil {
			expandNode(x, n.Else)
		}
	case *While:
		expandNode(x, n.Cond)
		expandNode(x, n.Body)
	case *Subshell:
		expandNode(x, n.Body)
	case *Brace:
		expandNode(x, n.Body)
	}
}

// FuzzPrintRoundTrip: for any accepted script, the printed form must
// re-parse, and printing the re-parse must reproduce the same text —
// parse→print→parse is a fixed point and never panics.
func FuzzPrintRoundTrip(f *testing.F) {
	seedAll(f)
	f.Fuzz(func(t *testing.T, src string) {
		list, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(list)
		reparsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse:\n src: %q\nprinted: %q\n err: %v", src, printed, err)
		}
		second := Print(reparsed)
		if second != printed {
			t.Fatalf("print is not a fixed point:\n src: %q\n 1st: %q\n 2nd: %q", src, printed, second)
		}
	})
}

// TestFuzzSeedsRoundTrip runs the round-trip invariant over the whole
// seed corpus in a plain `go test`, so the property is continuously
// checked even where fuzzing is not.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, src := range fuzzSeeds {
		list, err := Parse(src)
		if err != nil {
			t.Errorf("seed does not parse: %q: %v", src, err)
			continue
		}
		printed := Print(list)
		reparsed, err := Parse(printed)
		if err != nil {
			t.Errorf("seed print does not re-parse: %q -> %q: %v", src, printed, err)
			continue
		}
		if second := Print(reparsed); second != printed {
			t.Errorf("seed print not a fixed point:\n src: %q\n 1st: %q\n 2nd: %q", src, printed, second)
		}
		if strings.TrimSpace(src) != "" && len(list.Items) == 0 && !strings.HasPrefix(strings.TrimSpace(src), "#") {
			t.Errorf("non-empty seed parsed to empty list: %q", src)
		}
	}
}
