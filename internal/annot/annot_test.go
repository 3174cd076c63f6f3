package annot

import (
	"strings"
	"testing"
)

func TestParseCommRecord(t *testing.T) {
	// The paper's example record, verbatim (§3.2).
	src := `comm {
| -1 /\ -3 => (S, [args[1]], [stdout])
| -2 /\ -3 => (S, [args[0]], [stdout])
| _ => (P, [args[0], args[1]], [stdout])
}`
	rec, err := ParseRecord(src)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "comm" || len(rec.Clauses) != 3 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Clauses[0].Assign.Class != Stateless {
		t.Errorf("clause 0 class = %v", rec.Clauses[0].Assign.Class)
	}
	if rec.Clauses[2].Pred != nil {
		t.Errorf("otherwise clause must have nil pred")
	}
	if len(rec.Clauses[2].Assign.Inputs) != 2 {
		t.Errorf("otherwise inputs = %v", rec.Clauses[2].Assign.Inputs)
	}
}

func TestCommResolution(t *testing.T) {
	reg := StdRegistry()
	// comm -13 f1 f2: stateless over second input.
	inv := reg.Classify("comm", []string{"-13", "f1", "f2"})
	if inv.Class != Stateless {
		t.Errorf("comm -13 class = %v, want S", inv.Class)
	}
	if len(inv.Inputs) != 1 || inv.Inputs[0].Path != "f2" {
		t.Errorf("comm -13 inputs = %v, want [f2]", inv.Inputs)
	}
	// comm -23 f1 f2: stateless over first input.
	inv = reg.Classify("comm", []string{"-23", "f1", "f2"})
	if len(inv.Inputs) != 1 || inv.Inputs[0].Path != "f1" {
		t.Errorf("comm -23 inputs = %v, want [f1]", inv.Inputs)
	}
	// Plain comm: pure over both inputs in order.
	inv = reg.Classify("comm", []string{"f1", "f2"})
	if inv.Class != Pure || len(inv.Inputs) != 2 {
		t.Errorf("comm class=%v inputs=%v", inv.Class, inv.Inputs)
	}
	if inv.Inputs[0].Path != "f1" || inv.Inputs[1].Path != "f2" {
		t.Errorf("comm input order wrong: %v", inv.Inputs)
	}
}

func TestClassOrdering(t *testing.T) {
	if LeastParallelizable(Stateless, Pure) != Pure {
		t.Error("S vs P")
	}
	if LeastParallelizable(SideEffectful, Stateless) != SideEffectful {
		t.Error("E vs S")
	}
	if !Stateless.DataParallelizable() || !Pure.DataParallelizable() {
		t.Error("S and P must be data-parallelizable")
	}
	if NonParallelizable.DataParallelizable() || SideEffectful.DataParallelizable() {
		t.Error("N and E must not be data-parallelizable")
	}
}

func TestFlagRefinement(t *testing.T) {
	reg := StdRegistry()
	cases := []struct {
		name string
		argv []string
		want Class
	}{
		{"cat", nil, Stateless},
		{"cat", []string{"-n"}, Pure}, // the paper's example: cat -n jumps to P
		{"grep", []string{"foo"}, Stateless},
		{"grep", []string{"-c", "foo"}, Pure},
		{"grep", []string{"-q", "foo"}, NonParallelizable},
		{"sort", []string{"-rn"}, Pure},
		{"sort", []string{"-c"}, NonParallelizable},
		{"sort", []string{"-o", "out.txt"}, SideEffectful},
		{"sort", []string{"-R"}, NonParallelizable},
		{"sed", []string{"s/a/b/"}, Stateless},
		{"sed", []string{"-n", "s/a/b/p"}, Stateless},
		{"sed", []string{"-i", "s/a/b/", "f"}, SideEffectful},
		{"sed", []string{"2d"}, NonParallelizable},    // positional address
		{"sed", []string{"$d"}, NonParallelizable},    // last-line address
		{"sed", []string{"N;P;D"}, NonParallelizable}, // multi-line state
		{"sed", []string{"s/;/,/"}, Stateless},        // ';' inside a command is not a separator
		{"sed", []string{"y/;/,/"}, Stateless},
		{"sed", []string{"-n", "/7/p"}, Stateless},
		{"sed", []string{"-e", "1d", "-e", "s/9/X/"}, NonParallelizable}, // every -e counts
		{"sed", []string{"-e", "s/9/X/", "-e", "5q"}, NonParallelizable},
		{"sed", []string{"-f", "script.sed"}, NonParallelizable},
		{"sed", []string{"s/a/b"}, NonParallelizable}, // does not parse: one node reports it
		{"uniq", nil, Pure},
		{"uniq", []string{"in", "out"}, SideEffectful},
		{"wc", []string{"-l"}, Pure},
		{"tr", []string{"-s", " "}, Stateless},
		{"tr", []string{"-cs", "A-Za-z", `\n`}, Stateless}, // newline maps to itself
		{"tr", []string{"-s", `\n`}, Stateless},            // squeezing keeps chunks line-aligned
		{"tr", []string{"-d", `\n`}, Pure},                 // glues lines across chunks
		{"tr", []string{`\n`, " "}, Pure},
		{"tr", []string{"-d", "[:space:]"}, Pure},
		{"tr", []string{"-cd", "a-z"}, Pure},
		{"tr", []string{"-cd", `a-z\n`}, Stateless},
		{"tr", []string{`\0-\r`, "x"}, Pure},
		{"unknowncmd123", nil, SideEffectful},
	}
	for _, c := range cases {
		inv := reg.Classify(c.name, c.argv)
		if inv.Class != c.want {
			t.Errorf("%s %v: class = %v, want %v", c.name, c.argv, inv.Class, c.want)
		}
	}
}

func TestStdinFallback(t *testing.T) {
	reg := StdRegistry()
	inv := reg.Classify("grep", []string{"-v", "999"})
	if len(inv.Inputs) != 1 || inv.Inputs[0].Kind != StreamStdin {
		t.Errorf("grep with no file operands must read stdin: %v", inv.Inputs)
	}
	inv = reg.Classify("grep", []string{"pat", "f1", "f2"})
	if len(inv.Inputs) != 2 || inv.Inputs[0].Path != "f1" || inv.Inputs[1].Path != "f2" {
		t.Errorf("grep file inputs wrong: %v", inv.Inputs)
	}
	// seq has no inputs at all — no stdin fallback.
	inv = reg.Classify("seq", []string{"10"})
	if len(inv.Inputs) != 0 {
		t.Errorf("seq must have no inputs: %v", inv.Inputs)
	}
}

func TestOptionParsing(t *testing.T) {
	rec := &Record{Name: "x", ValueOpts: map[string]bool{"-d": true, "-f": true}}
	o := rec.ParseArgs([]string{"-d", " ", "-f9", "file1", "--", "-notopt"})
	if v, _ := o.Value("-d"); v != " " {
		t.Errorf("-d value = %q", v)
	}
	if v, _ := o.Value("-f"); v != "9" {
		t.Errorf("-f attached value = %q", v)
	}
	if len(o.Operands) != 2 || o.Operands[0] != "file1" || o.Operands[1] != "-notopt" {
		t.Errorf("operands = %v", o.Operands)
	}
}

func TestClusteredFlags(t *testing.T) {
	rec := &Record{Name: "sort"}
	o := rec.ParseArgs([]string{"-rn"})
	if !o.Has("-r") || !o.Has("-n") {
		t.Errorf("clustered -rn not split: %v", o.Options())
	}
}

func TestLongOptions(t *testing.T) {
	rec := &Record{Name: "sort", ValueOpts: map[string]bool{"--parallel": true}}
	o := rec.ParseArgs([]string{"--parallel=8", "f"})
	if v, _ := o.Value("--parallel"); v != "8" {
		t.Errorf("--parallel=8 value = %q", v)
	}
	o = rec.ParseArgs([]string{"--parallel", "8", "f"})
	if v, _ := o.Value("--parallel"); v != "8" {
		t.Errorf("--parallel 8 value = %q", v)
	}
	if len(o.Operands) != 1 {
		t.Errorf("operands = %v", o.Operands)
	}
}

func TestPredicateEval(t *testing.T) {
	src := `x {
| value -k = "2" /\ not -r => (S, [stdin], [stdout])
| ( -a \/ -b ) /\ -c => (P, [stdin], [stdout])
| _ => (E, [], [stdout])
}`
	rec, err := ParseRecord(src)
	if err != nil {
		t.Fatal(err)
	}
	rec.ValueOpts = map[string]bool{"-k": true}
	if got := rec.Resolve([]string{"-k", "2"}).Class; got != Stateless {
		t.Errorf("-k 2: %v", got)
	}
	if got := rec.Resolve([]string{"-k", "2", "-r"}).Class; got != SideEffectful {
		t.Errorf("-k 2 -r: %v", got)
	}
	if got := rec.Resolve([]string{"-a", "-c"}).Class; got != Pure {
		t.Errorf("-a -c: %v", got)
	}
	if got := rec.Resolve([]string{"-a"}).Class; got != SideEffectful {
		t.Errorf("-a alone: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                    // no record
		"x { }",                               // no clauses
		"x { | -a => (Z, [], []) }",           // bad class
		"x { | => (S, [], []) }",              // missing predicate
		"x { | -a (S, [], []) }",              // missing arrow
		"x { | -a => (S, [], [) }",            // bad list
		"x { | -a => (S [stdin], [stdout]) }", // missing comma
	}
	for _, src := range bad {
		if _, err := ParseRecords(src); err == nil && src != "" {
			t.Errorf("ParseRecords(%q) succeeded, want error", src)
		}
	}
	if recs, err := ParseRecords(""); err != nil || len(recs) != 0 {
		t.Errorf("empty source should parse to zero records: %v %v", recs, err)
	}
}

func TestRegistryRegisterOverride(t *testing.T) {
	reg, err := NewStdRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// A user demotes grep to E (maintenance story from §3.2).
	if err := reg.Register("grep { | _ => (E, [], [stdout]) }"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Classify("grep", []string{"x"}).Class; got != SideEffectful {
		t.Errorf("override not applied: %v", got)
	}
	// The shared registry must be unaffected.
	if got := StdRegistry().Classify("grep", []string{"x"}).Class; got != Stateless {
		t.Errorf("shared registry mutated: %v", got)
	}
}

func TestPredString(t *testing.T) {
	src := `x { | not ( -a /\ value -b = "c" ) \/ -d => (S, [stdin], [stdout]) }`
	rec, err := ParseRecord(src)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Clauses[0].Pred.String()
	for _, frag := range []string{"not", "-a", "value -b = c", "-d"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Pred.String() = %q missing %q", s, frag)
		}
	}
}
