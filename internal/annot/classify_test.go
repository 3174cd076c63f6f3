package annot_test

// These tests classify through the command registry, which files each
// standard record and each builtin's refiner in the name's entry: the
// classification a plan reads.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/annot"
	"repro/internal/commands"
)

func TestCommResolution(t *testing.T) {
	reg := commands.Std()
	// comm -13 f1 f2: stateless over second input.
	inv := reg.Classify("comm", []string{"-13", "f1", "f2"})
	if inv.Class != annot.Stateless {
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
	if inv.Class != annot.Pure || len(inv.Inputs) != 2 {
		t.Errorf("comm class=%v inputs=%v", inv.Class, inv.Inputs)
	}
	if inv.Inputs[0].Path != "f1" || inv.Inputs[1].Path != "f2" {
		t.Errorf("comm input order wrong: %v", inv.Inputs)
	}
}

func TestFlagRefinement(t *testing.T) {
	reg := commands.Std()
	cases := []struct {
		name string
		argv []string
		want annot.Class
	}{
		{"cat", nil, annot.Stateless},
		{"cat", []string{"-n"}, annot.Pure}, // the paper's example: cat -n jumps to P
		{"grep", []string{"foo"}, annot.Stateless},
		{"grep", []string{"-c", "foo"}, annot.Pure},
		{"grep", []string{"-q", "foo"}, annot.NonParallelizable},
		{"sort", []string{"-rn"}, annot.Pure},
		{"sort", []string{"-c"}, annot.NonParallelizable},
		{"sort", []string{"-o", "out.txt"}, annot.SideEffectful},
		{"sort", []string{"-R"}, annot.NonParallelizable},
		{"sed", []string{"s/a/b/"}, annot.Stateless},
		{"sed", []string{"-n", "s/a/b/p"}, annot.Stateless},
		{"sed", []string{"-i", "s/a/b/", "f"}, annot.NonParallelizable}, // sed refuses -i: one node reports it
		{"sed", []string{"2d"}, annot.NonParallelizable},                // positional address
		{"sed", []string{"$d"}, annot.NonParallelizable},                // last-line address
		{"sed", []string{"N;P;D"}, annot.NonParallelizable},             // multi-line state
		{"sed", []string{"s/;/,/"}, annot.Stateless},                    // ';' inside a command is not a separator
		{"sed", []string{"y/;/,/"}, annot.Stateless},
		{"sed", []string{"-n", "/7/p"}, annot.Stateless},
		{"sed", []string{"-e", "1d", "-e", "s/9/X/"}, annot.NonParallelizable}, // every -e counts
		{"sed", []string{"-e", "s/9/X/", "-e", "5q"}, annot.NonParallelizable},
		{"sed", []string{"-f", "script.sed"}, annot.NonParallelizable},
		{"sed", []string{"s/a/b"}, annot.NonParallelizable}, // does not parse: one node reports it
		{"uniq", nil, annot.Pure},
		{"uniq", []string{"in", "out"}, annot.SideEffectful},
		{"wc", []string{"-l"}, annot.Pure},
		{"tr", []string{"-s", " "}, annot.Stateless},
		{"tr", []string{"-cs", "A-Za-z", `\n`}, annot.Stateless}, // newline maps to itself
		{"tr", []string{"-s", `\n`}, annot.Stateless},            // squeezing keeps chunks line-aligned
		{"tr", []string{"-d", `\n`}, annot.Pure},                 // glues lines across chunks
		{"tr", []string{`\n`, " "}, annot.Pure},
		{"tr", []string{"-d", "[:space:]"}, annot.Pure},
		{"tr", []string{"-cd", "a-z"}, annot.Pure},
		{"tr", []string{"-cd", `a-z\n`}, annot.Stateless},
		{"tr", []string{`\0-\r`, "x"}, annot.Pure},
		{"unknowncmd123", nil, annot.SideEffectful},
	}
	for _, c := range cases {
		inv := reg.Classify(c.name, c.argv)
		if inv.Class != c.want {
			t.Errorf("%s %v: class = %v, want %v", c.name, c.argv, inv.Class, c.want)
		}
	}
}

func TestStdinFallback(t *testing.T) {
	reg := commands.Std()
	inv := reg.Classify("grep", []string{"-v", "999"})
	if len(inv.Inputs) != 1 || inv.Inputs[0].Kind != annot.StreamStdin {
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

// TestRegistryRegisterOverride: a user record replaces a builtin's in a
// clone of the registry (the §3.2 maintenance story: a user demotes grep
// to E) and leaves the shared registry as it was.
func TestRegistryRegisterOverride(t *testing.T) {
	rec, err := annot.ParseRecord("grep { | _ => (E, [], [stdout]) }")
	if err != nil {
		t.Fatal(err)
	}
	reg := commands.Std().Clone()
	e, _ := reg.Entry("grep")
	e.Record = rec
	reg.Set("grep", e)
	if got := reg.Classify("grep", []string{"x"}).Class; got != annot.SideEffectful {
		t.Errorf("override not applied: %v", got)
	}
	// The shared registry must be unaffected.
	if got := commands.Std().Classify("grep", []string{"x"}).Class; got != annot.Stateless {
		t.Errorf("shared registry mutated: %v", got)
	}
}

// TestRecordFlagsAreTaken: a stdlib record names only flags its command
// takes. Every entry with both a record and an implementation is tried. Each takesvalue flag and each flag a clause tests runs through
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
	tried := 0
	for _, stdRec := range annot.Stdlib() {
		name := stdRec.Name
		e, _ := commands.Std().Entry(name)
		if e.Run == nil || e.Record == nil {
			continue
		}
		rec := e.Record
		flags := map[string]bool{}
		for f := range rec.ValueOpts {
			flags[f] = true
		}
		var walk func(p annot.Pred)
		walk = func(p annot.Pred) {
			switch p := p.(type) {
			case *annot.HasOpt:
				flags[p.Opt] = true
			case *annot.ValueEq:
				flags[p.Opt] = true
			case *annot.Not:
				walk(p.P)
			case *annot.And:
				walk(p.L)
				walk(p.R)
			case *annot.Or:
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
