package annot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/commands"
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
		{"sed", []string{"-i", "s/a/b/", "f"}, NonParallelizable}, // sed refuses -i: one node reports it
		{"sed", []string{"2d"}, NonParallelizable},                // positional address
		{"sed", []string{"$d"}, NonParallelizable},                // last-line address
		{"sed", []string{"N;P;D"}, NonParallelizable},             // multi-line state
		{"sed", []string{"s/;/,/"}, Stateless},                    // ';' inside a command is not a separator
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
		"",                                       // no record
		"x { }",                                  // no clauses
		"x { | -a => (Z, [], []) }",              // bad class
		"x { | => (S, [], []) }",                 // missing predicate
		"x { | -a (S, [], []) }",                 // missing arrow
		"x { | -a => (S, [], [) }",               // bad list
		"x { | -a => (S [stdin], [stdout]) }",    // missing comma
		`\`,                                      // lone backslash
		`x { | -a\b => (S, [stdin], [stdout]) }`, // backslash outside /\ and \/
		`x { | -a || -b => (S, [stdin], [stdout]) }`, // || is not an operator
		`x { | value -a = "abc`,                      // unterminated string
		"x { | _ => (S, [args[-1]], [stdout]) }",     // negative operand index
		"x { | _ => (S, [args[0:-2]], [stdout]) }",   // negative upper bound
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
	reg := StdRegistry().Clone()
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

// FuzzParseRecords: any text either parses to records or returns an
// error — no panic, no hang — and every record it parses resolves an
// argv without panicking.
func FuzzParseRecords(f *testing.F) {
	f.Add(stdlibSrc)
	f.Add(`cut { takesvalue -d -f; | -z => (E, [], [stdout]) | _ => (S, [args[0:]], [stdout]) }`)
	f.Add(`x { | not -a => (S, [stdin], [stdout]) | _ => (E, [], []) }`)
	f.Add(`x { | value -n = "1" \/ -c => (P, [args[1:3], arg[0]], [stdout]) }`)
	f.Add(`comm { | -1 /\ not -3 => (S, [args[1]], [stdout]) | _ => (P, [args[:2], args[2:]], [stdout]) }`)
	argvs := [][]string{
		nil,
		{"-a"},
		{"-n", "1", "f"},
		{"-13", "--", "-", "a", "b"},
		{"--long=v", "-d", ",", "-f2", "f", "g", "h"},
	}
	f.Fuzz(func(t *testing.T, src string) {
		recs, err := ParseRecords(src)
		if err != nil {
			if recs != nil {
				t.Fatalf("ParseRecords(%q) returned records and an error", src)
			}
			return
		}
		for _, rec := range recs {
			if len(rec.Clauses) == 0 {
				t.Fatalf("ParseRecords(%q): record %s has no clauses", src, rec.Name)
			}
			for _, argv := range argvs {
				rec.Resolve(argv)
			}
		}
	})
}

// TestRecordFlagsAreTaken: a stdlib record names only flags its command
// takes. Each takesvalue flag and each flag a clause tests runs through
// the registered builtin (width 1: one command, no planner) over a
// three-line input, with a sample value when it takes one; a usage error
// fails the test.
func TestRecordFlagsAreTaken(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "h"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f1", "f2", "h/x"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("a\nb\nc\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// value is a flag's sample value, by "command flag" and then by flag.
	value := map[string]string{
		"-e": "a", "-m": "1", "-n": "1", "-c": "1", "-b": "1", "-f": "1", "-s": "1", "-w": "1",
		"-d": ",", "-t": ",", "-k": "1", "-o": "out", "-I": "{}", "-L": "1",
		"sed -e": "p", "nl -b": "a", "xargs -s": "100", "iconv -f": "utf-8", "iconv -t": "utf-8",
	}
	// operands follow the flag, by "command flag" and then by command.
	operands := map[string][]string{
		"grep": {"a"}, "grep -e": nil, "sed": {"p"}, "sed -e": nil, "cut -d": {"-f1"},
		"comm": {"f1", "f2"}, "xargs": {"echo"}, "curl": {"http://h/x"},
	}
	lookup := func(name, flag string) (string, []string) {
		v, ok := value[name+" "+flag]
		if !ok {
			v = value[flag]
		}
		ops, ok := operands[name+" "+flag]
		if !ok {
			ops = operands[name]
		}
		return v, ops
	}
	reg := StdRegistry()
	tried := 0
	for _, name := range reg.Names() {
		if _, ok := commands.Std().Lookup(name); !ok {
			continue
		}
		rec, _ := reg.Lookup(name)
		flags := map[string]bool{}
		for f := range rec.ValueOpts {
			flags[f] = true
		}
		var walk func(p Pred)
		walk = func(p Pred) {
			switch p := p.(type) {
			case *HasOpt:
				flags[p.Opt] = true
			case *ValueEq:
				flags[p.Opt] = true
			case *Not:
				walk(p.P)
			case *And:
				walk(p.L)
				walk(p.R)
			case *Or:
				walk(p.L)
				walk(p.R)
			}
		}
		for _, c := range rec.Clauses {
			if c.Pred != nil {
				walk(c.Pred)
			}
		}
		for flag := range flags {
			v, ops := lookup(name, flag)
			argv := []string{flag}
			if rec.ValueOpts[flag] {
				argv = append(argv, v)
			}
			argv = append(argv, ops...)
			var stderr strings.Builder
			ctx := &commands.Context{
				Args: argv, Stdin: strings.NewReader("c 3\na 1\nb 2\n"), Stderr: &stderr,
				FS: commands.OSFS{Dir: dir}, Env: map[string]string{"PASH_CURL_ROOT": dir},
			}
			if err := commands.Std().Run(name, ctx); errors.Is(err, commands.ErrUsage) {
				t.Errorf("%s %s: %s", name, strings.Join(argv, " "), strings.TrimSpace(stderr.String()))
			}
			tried++
		}
	}
	if tried < 30 {
		t.Errorf("tried %d flags; the records name more", tried)
	}
}
