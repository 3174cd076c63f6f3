package shell

import (
	"os"
	"path/filepath"
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
	// Quoting and globbing: only an unquoted *, ? or [ globs.
	`echo 'a*' "a?" a* a? \[ab] [ab] "[x" '*' "b"*`,
	`x='a*'; echo $x "$x" 'b'"?" \*`,
	// Special and positional parameters, which expansion refuses.
	`echo $# $@ $* $$ $0 $! $1 ${10} ${-} "$#" "x$@"`,
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
// Expansion errors are fine; panics are not. Globbing runs against a
// directory whose names the seeds' patterns match, and command
// substitution uses a pure echo stand-in. Two rules hold of every word:
// one made only of quoted parts expands to its own text, glob
// characters included, and one holding a refused parameter ($#, $1, ...)
// is an error naming one, never an empty field.
func FuzzExpand(f *testing.F) {
	seedAll(f)
	dir := f.TempDir()
	for _, name := range []string{"a1", "a2", "b?", "[x", "*", "xval"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		list, err := Parse(src)
		if err != nil {
			return
		}
		env := NewEnv()
		env.Set("x", "xval")
		env.Set("base", "b")
		x := &Expander{
			Env:  env,
			Glob: true,
			Dir:  dir,
			CmdSub: func(s string) (string, error) {
				return "sub:" + s, nil
			},
		}
		expandNode(x, list, func(w *Word) {
			fields, err := x.ExpandWord(w)
			if text, ok := quotedText(w); ok && (err != nil || len(fields) != 1 || fields[0] != text) {
				t.Fatalf("%q: quoted word %q expands to %q, %v", src, text, fields, err)
			}
			if refused := refusedParams(w.Parts); len(refused) > 0 {
				named := false
				for _, name := range refused {
					named = named || err != nil && strings.Contains(err.Error(), "$"+name+" ")
				}
				if !named || fields != nil {
					t.Fatalf("%q: word with %v expands to %q, %v; want an error naming one", src, refused, fields, err)
				}
			}
		})
	})
}

// quotedText is the text of a word made only of quoted literal parts.
func quotedText(w *Word) (string, bool) {
	var b strings.Builder
	for _, p := range w.Parts {
		switch p := p.(type) {
		case *SglQuoted:
			b.WriteString(p.Text)
		case *DblQuoted:
			for _, ip := range p.Parts {
				lit, ok := ip.(*Lit)
				if !ok {
					return "", false
				}
				b.WriteString(lit.Text)
			}
		default:
			return "", false
		}
	}
	return b.String(), len(w.Parts) > 0
}

// refusedParams lists the refused parameters among parts, through
// double quotes and brace lists.
func refusedParams(parts []WordPart) []string {
	var out []string
	for _, p := range parts {
		switch p := p.(type) {
		case *Param:
			if refusedParam(p.Name) {
				out = append(out, p.Name)
			}
		case *DblQuoted:
			out = append(out, refusedParams(p.Parts)...)
		case *BraceList:
			for _, it := range p.Items {
				out = append(out, refusedParams(it.Parts)...)
			}
		}
	}
	return out
}

// expandNode walks every word in the AST through the expander, handing
// each argument and loop item to check as well.
func expandNode(x *Expander, n Node, check func(*Word)) {
	switch n := n.(type) {
	case nil:
	case *List:
		for _, it := range n.Items {
			expandNode(x, it.Cmd, check)
		}
	case *Simple:
		for _, a := range n.Assigns {
			if a.Value != nil {
				x.ExpandString(a.Value)
			}
		}
		for _, w := range n.Args {
			check(w)
		}
		for _, r := range n.Redirs {
			if r.Target != nil {
				x.ExpandString(r.Target)
			}
		}
	case *Pipeline:
		for _, c := range n.Cmds {
			expandNode(x, c, check)
		}
	case *AndOr:
		expandNode(x, n.First, check)
		for _, p := range n.Rest {
			expandNode(x, p.Cmd, check)
		}
	case *For:
		for _, w := range n.Items {
			check(w)
		}
		expandNode(x, n.Body, check)
	case *If:
		expandNode(x, n.Cond, check)
		expandNode(x, n.Then, check)
		if n.Else != nil {
			expandNode(x, n.Else, check)
		}
	case *While:
		expandNode(x, n.Cond, check)
		expandNode(x, n.Body, check)
	case *Subshell:
		expandNode(x, n.Body, check)
	case *Brace:
		expandNode(x, n.Body, check)
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
