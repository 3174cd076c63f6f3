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
