package pash

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dfg"
)

// revSpec is the test's custom stateless command: it reverses each line
// and appends "#<len>". The command and kernel are written separately,
// so the equivalence tests also pin the two implementations together.
func revSpec() CommandSpec {
	return CommandSpec{
		Name: "myrev",
		Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
			data, err := io.ReadAll(stdin)
			if err != nil {
				return err
			}
			for len(data) > 0 {
				i := bytes.IndexByte(data, '\n')
				line := data
				if i >= 0 {
					line = data[:i]
					data = data[i+1:]
				} else {
					data = nil
				}
				out := make([]byte, 0, len(line)+8)
				for j := len(line) - 1; j >= 0; j-- {
					out = append(out, line[j])
				}
				fmt.Fprintf(stdout, "%s#%d\n", out, len(line))
			}
			return nil
		},
		Annotation: "myrev { | _ => (S, [stdin], [stdout]) }",
		Kernel: func(args []string) (Kernel, bool) {
			if len(args) != 0 {
				return nil, false
			}
			return &revKernel{}, true
		},
	}
}

type revKernel struct{ carry []byte }

func (k *revKernel) Apply(out, in []byte) []byte {
	for len(in) > 0 {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			k.carry = append(k.carry, in...)
			return out
		}
		line := in[:i]
		if len(k.carry) > 0 {
			k.carry = append(k.carry, line...)
			line = k.carry
		}
		out = k.emit(out, line)
		k.carry = k.carry[:0]
		in = in[i+1:]
	}
	return out
}

func (k *revKernel) emit(out, line []byte) []byte {
	for j := len(line) - 1; j >= 0; j-- {
		out = append(out, line[j])
	}
	out = append(out, '#')
	out = strconv.AppendInt(out, int64(len(line)), 10)
	return append(out, '\n')
}

func (k *revKernel) Finish(out []byte) []byte {
	if len(k.carry) > 0 {
		out = k.emit(out, k.carry)
		k.carry = k.carry[:0]
	}
	return out
}

func (k *revKernel) Status() error { return nil }

// sumSpec is the test's custom pure command: `mysum` prints the sum of
// integer lines, parallelized by a custom associative aggregator.
func sumSpec() CommandSpec {
	sum := func(r io.Reader) (int64, error) {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, err
		}
		var total int64
		for _, f := range strings.Fields(string(data)) {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	return CommandSpec{
		Name: "mysum",
		Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
			total, err := sum(stdin)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(stdout, "%d\n", total)
			return err
		},
		Annotation: "mysum { | _ => (P, [stdin], [stdout]) }",
		Aggregator: &AggregatorSpec{
			AggName: "mysum-agg",
			AggArgs: []string{},
			Agg: func(args []string, inputs []io.Reader, stdout io.Writer) error {
				var total int64
				for _, r := range inputs {
					n, err := sum(r)
					if err != nil {
						return err
					}
					total += n
				}
				_, err := fmt.Fprintf(stdout, "%d\n", total)
				return err
			},
			Associative: true,
		},
	}
}

// chunkyReader delivers its underlying data in random-sized reads, so
// kernels and framed replicas see arbitrary chunk boundaries.
type chunkyReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *chunkyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(701)
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func runExt(t *testing.T, opts Options, specs []CommandSpec, script string, stdin io.Reader) string {
	t.Helper()
	s := NewSession(opts)
	for _, spec := range specs {
		if err := s.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	code, err := s.Run(context.Background(), script, stdin, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("%q: code=%d err=%v", script, code, err)
	}
	return out.String()
}

// TestExtensionEquivalenceProperty is the extension-API mirror of the
// builtin kernel equivalence tests: a user-registered command with a
// kernel must be byte-identical across sequential, width-8 round-robin
// split (unfused), and width-8 fused execution, under random input
// chunking.
func TestExtensionEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	words := []string{"alpha", "beta", "gamma", "delta", "", "x", "longer-line-with-content"}
	for round := 0; round < 6; round++ {
		var in bytes.Buffer
		lines := rng.Intn(4000)
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&in, "%s %d\n", words[rng.Intn(len(words))], rng.Int63())
		}
		if round%2 == 1 && in.Len() > 0 {
			in.Truncate(in.Len() - 1) // exercise the unterminated final line
		}
		input := in.Bytes()

		script := "myrev | tr a-z A-Z"
		specs := []CommandSpec{revSpec()}
		seq := runExt(t, SequentialOptions(), specs, script,
			&chunkyReader{data: input, rng: rand.New(rand.NewSource(int64(round)))})

		rrOpts := DefaultOptions(8)
		rrOpts.DisableFusion = true
		rr := runExt(t, rrOpts, specs, script,
			&chunkyReader{data: input, rng: rand.New(rand.NewSource(int64(round) + 100))})

		fused := runExt(t, DefaultOptions(8), specs, script,
			&chunkyReader{data: input, rng: rand.New(rand.NewSource(int64(round) + 200))})

		if seq != rr {
			t.Fatalf("round %d: rr-split diverged from sequential (%d lines)", round, lines)
		}
		if seq != fused {
			t.Fatalf("round %d: fused diverged from sequential (%d lines)", round, lines)
		}
	}
}

// TestExtensionAggregatorEquivalence: the custom pure command computes
// the same result sequentially and through the width-8 map/aggregate
// tree.
func TestExtensionAggregatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var in bytes.Buffer
	var want int64
	for i := 0; i < 5000; i++ {
		n := rng.Int63n(1_000_000)
		want += n
		fmt.Fprintf(&in, "%d\n", n)
	}
	input := in.String()
	specs := []CommandSpec{sumSpec()}
	seq := runExt(t, SequentialOptions(), specs, "mysum", strings.NewReader(input))
	par := runExt(t, DefaultOptions(8), specs, "mysum", strings.NewReader(input))
	if seq != par {
		t.Fatalf("parallel sum %q != sequential %q", par, seq)
	}
	if strings.TrimSpace(seq) != fmt.Sprint(want) {
		t.Fatalf("sum = %q, want %d", seq, want)
	}
}

// TestExtensionStructure asserts the custom command really sits inside
// the fast paths: the planned width-8 graph contains a fused node whose
// stages include the external kernel's command, a streaming round-robin
// split, and (for the pure form) a fan-in aggregation tree of the
// custom aggregate.
func TestExtensionStructure(t *testing.T) {
	s := NewSession(DefaultOptions(8))
	for _, spec := range []CommandSpec{revSpec(), sumSpec()} {
		if err := s.Register(spec); err != nil {
			t.Fatal(err)
		}
	}

	plan, err := s.CompileExec("myrev | tr a-z A-Z")
	if err != nil {
		t.Fatal(err)
	}
	fusedWithExt, rrSplits := 0, 0
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindFused {
				for _, st := range n.Stages {
					if st.Name == "myrev" {
						fusedWithExt++
					}
				}
			}
			if n.Kind == dfg.KindSplit && n.Split == dfg.RoundRobinSplit {
				rrSplits++
			}
		}
	}
	if fusedWithExt != 8 {
		t.Errorf("fused stages running the external kernel = %d, want 8 (one per replica)", fusedWithExt)
	}
	if rrSplits != 1 {
		t.Errorf("streaming rr splits = %d, want 1", rrSplits)
	}

	plan, err = s.CompileExec("mysum")
	if err != nil {
		t.Fatal(err)
	}
	aggNodes, mapNodes := 0, 0
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindAgg && n.Name == "mysum-agg" {
				aggNodes++
			}
			if n.Kind == dfg.KindMap && n.Name == "mysum" {
				mapNodes++
			}
		}
	}
	if mapNodes != 8 {
		t.Errorf("map instances = %d, want 8", mapNodes)
	}
	// Width 8 at fan-in 4: two leaf aggregates + one root.
	if aggNodes != 3 {
		t.Errorf("aggregation-tree nodes = %d, want 3 (fan-in-4 tree over 8 maps)", aggNodes)
	}

	// The Graphviz export shows the same structure.
	dot := plan.Dot()
	if !strings.Contains(dot, "mysum-agg") || !strings.Contains(dot, "digraph") {
		t.Errorf("Plan.Dot missing expected content:\n%s", dot)
	}
}

// TestShadowBuiltinPrecedence pins the shadowing contract: registering
// `grep` replaces the builtin within the session — implementation,
// kernel, aggregator, and annotation all stop applying — and the plan
// cache is invalidated so already-planned regions see the change.
func TestShadowBuiltinPrecedence(t *testing.T) {
	s := NewSession(DefaultOptions(8))
	script := "grep -c a"
	input := func() io.Reader { return strings.NewReader("a\nb\nab\n") }

	var out bytes.Buffer
	if code, err := s.Run(context.Background(), script, input(), &out, io.Discard); err != nil || code != 0 {
		t.Fatalf("builtin grep: code=%d err=%v", code, err)
	}
	if out.String() != "2\n" {
		t.Fatalf("builtin grep output = %q", out.String())
	}
	// Run it again so the region is warm in the plan cache.
	out.Reset()
	if _, err := s.Run(context.Background(), script, input(), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st := s.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("expected a warm plan cache before shadowing: %+v", st)
	}

	// Shadow grep: the user implementation ignores the pattern and
	// reports a marker. User registration wins; the cached plan for the
	// same region must not survive.
	if err := s.Register(CommandSpec{Name: "grep", Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		fmt.Fprintf(stdout, "custom-grep:%s\n", strings.Join(args, ","))
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if st := s.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("plan cache not busted by re-registration: %+v", st)
	}
	out.Reset()
	if code, err := s.Run(context.Background(), script, input(), &out, io.Discard); err != nil || code != 0 {
		t.Fatalf("custom grep: code=%d err=%v", code, err)
	}
	if out.String() != "custom-grep:-c,a\n" {
		t.Errorf("custom grep output = %q (builtin behavior survived shadowing)", out.String())
	}

	// The builtin's metadata must not leak onto the replacement: no
	// aggregator (grep -c's sum pair) and no fusion kernel may apply,
	// and without an annotation the name classifies conservatively —
	// the planned graph keeps one sequential grep node.
	plan, err := s.CompileExec("tr a-z A-Z | grep -c A")
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindFused {
				for _, st := range n.Stages {
					if st.Name == "grep" {
						t.Errorf("shadowed grep was fused via the builtin kernel")
					}
				}
			}
			if n.Kind == dfg.KindMap || n.Kind == dfg.KindAgg {
				t.Errorf("shadowed grep was parallelized via the builtin aggregator: %v", n)
			}
		}
	}

	// A fresh session is unaffected by the shadowing.
	s2 := NewSession(DefaultOptions(4))
	out.Reset()
	if _, err := s2.Run(context.Background(), script, input(), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != "2\n" {
		t.Errorf("shadowing leaked into a fresh session: %q", out.String())
	}
}

// TestShadowWithSpecRestoresFastPaths: shadowing a builtin name with a
// full spec (annotation + kernel) makes the replacement parallelize on
// its own terms.
func TestShadowWithSpecRestoresFastPaths(t *testing.T) {
	spec := revSpec()
	spec.Name = "grep" // deliberately collide with a builtin
	spec.Annotation = "grep { | _ => (S, [stdin], [stdout]) }"
	s := NewSession(DefaultOptions(8))
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}
	plan, err := s.CompileExec("grep | tr a-z A-Z")
	if err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindFused {
				for _, st := range n.Stages {
					if st.Name == "grep" {
						fused++
					}
				}
			}
		}
	}
	if fused != 8 {
		t.Errorf("re-specced grep fused stages = %d, want 8", fused)
	}
}

// TestNilKernelMeansNoKernelForm: a factory that reports true with a
// nil kernel has no kernel form for that invocation — the command plans
// unfused and runs — the same check the builtin kernels pass.
func TestNilKernelMeansNoKernelForm(t *testing.T) {
	spec := revSpec()
	spec.Kernel = func(args []string) (Kernel, bool) { return nil, true }
	s := NewSession(DefaultOptions(8))
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}
	plan, err := s.CompileExec("myrev | tr a-z A-Z")
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			for _, st := range n.Stages {
				if st.Name == "myrev" {
					t.Errorf("myrev fused through a nil kernel: %v", n)
				}
			}
		}
	}
	if got := runExt(t, DefaultOptions(8), []CommandSpec{spec}, "myrev | tr a-z A-Z", strings.NewReader("abc\n")); got != "CBA#3\n" {
		t.Errorf("output = %q, want %q", got, "CBA#3\n")
	}
}

// TestAnnotationClauses exercises the record's predicate operators
// through classification behavior: a guarded clause demotes -s
// invocations to side-effectful (sequential), everything else stays
// stateless and parallelizes.
func TestAnnotationClauses(t *testing.T) {
	spec := revSpec()
	spec.Annotation = `myrev {
	| -s \/ (-x /\ not -y) => (E, [], [])
	| _ => (S, [stdin], [stdout])
	}`
	s := NewSession(DefaultOptions(8))
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}

	countMaps := func(script string) int {
		t.Helper()
		plan, err := s.CompileExec(script)
		if err != nil {
			t.Fatal(err)
		}
		replicas := 0
		for _, item := range plan.Items {
			for _, n := range item.Graph.Nodes {
				if n.Kind == dfg.KindCommand && n.Name == "myrev" && n.Framed {
					replicas++
				}
				if n.Kind == dfg.KindFused {
					for _, st := range n.Stages {
						if st.Name == "myrev" {
							replicas++
						}
					}
				}
			}
		}
		return replicas
	}
	if got := countMaps("myrev | tr a-z A-Z"); got != 8 {
		t.Errorf("unguarded invocation replicas = %d, want 8", got)
	}
	if got := countMaps("myrev -s | tr a-z A-Z"); got != 0 {
		t.Errorf("-s invocation replicas = %d, want 0 (side-effectful clause)", got)
	}
	if got := countMaps("myrev -x | tr a-z A-Z"); got != 0 {
		t.Errorf("-x invocation replicas = %d, want 0 (-x /\\ not -y)", got)
	}
	// -x -y: the -x /\ not -y guard fails (not -y is false) → stateless arm.
	// The kernel factory rejects flagged invocations, so it replicates
	// framed rather than fusing.
	if got := countMaps("myrev -x -y | tr a-z A-Z"); got != 8 {
		t.Errorf("-x -y invocation replicas = %d, want 8", got)
	}
}

// TestRegisterValidation: malformed specs are rejected.
func TestRegisterValidation(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	noop := func(a []string, r io.Reader, w io.Writer) error { return nil }
	if err := s.Register(CommandSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if err := s.Register(CommandSpec{Name: "x"}); err == nil {
		t.Error("spec without Run accepted")
	}
	if err := s.Register(CommandSpec{
		Name: "x", Run: noop,
		Aggregator: &AggregatorSpec{},
	}); err == nil {
		t.Error("aggregator without AggName accepted")
	}
	if err := s.Register(CommandSpec{
		Name: "x", Run: noop,
		Annotation: "x { }",
	}); err == nil {
		t.Error("annotation without clauses accepted")
	}
	// A supplied aggregate implementation under the command's own name
	// would overwrite Run; self-aggregation is spelled with a nil Agg.
	if err := s.Register(CommandSpec{
		Name: "x", Run: noop,
		Aggregator: &AggregatorSpec{
			AggName: "x",
			Agg:     func(a []string, in []io.Reader, w io.Writer) error { return nil },
		},
	}); err == nil {
		t.Error("Agg under the command's own name accepted")
	}
	// ... and with a nil Agg it is allowed (sort / sort -m style).
	if err := s.Register(CommandSpec{
		Name: "x", Run: noop,
		Annotation: "x { | _ => (P, [stdin], [stdout]) }",
		Aggregator: &AggregatorSpec{AggName: "x", AggArgs: []string{"-m"}},
	}); err != nil {
		t.Errorf("self-aggregating spec rejected: %v", err)
	}
}

// TestRegisterRejectsBadAnnotation: an annotation that is not exactly
// one record, named after the command, with at least one clause, is an
// error, and the session keeps the registration it had.
func TestRegisterRejectsBadAnnotation(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	if err := s.Register(revSpec()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, annotation string }{
		{"syntax error", "myrev { | _ => (S, [stdin] [stdout]) }"},
		{"mismatched name", "yourrev { | _ => (S, [stdin], [stdout]) }"},
		{"two records", "myrev { | _ => (S, [stdin], [stdout]) } other { | _ => (E, [], []) }"},
		{"zero clauses", "myrev { }"},
	} {
		before := s.snapshot()
		spec := revSpec()
		spec.Run = func(args []string, stdin io.Reader, stdout io.Writer) error {
			_, err := io.WriteString(stdout, "replaced\n")
			return err
		}
		spec.Annotation = tc.annotation
		if err := s.Register(spec); err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.annotation)
		}
		after := s.snapshot()
		if after.Cmds.Generation() != before.Cmds.Generation() || after.Annot.Generation() != before.Annot.Generation() {
			t.Errorf("%s: registry generations moved", tc.name)
		}
		var out bytes.Buffer
		if code, err := s.Run(context.Background(), "myrev", strings.NewReader("abc\n"), &out, io.Discard); err != nil || code != 0 {
			t.Fatalf("%s: code=%d err=%v", tc.name, code, err)
		}
		if out.String() != "cba#3\n" {
			t.Errorf("%s: myrev output = %q, want the previous registration's", tc.name, out.String())
		}
	}
}

// TestAggNameShadowsBuiltinAnnotation: registering an aggregate
// implementation under a builtin's name clears that builtin's
// annotation too — its parallelizability claims must not apply to the
// stdin-ignoring aggregate wrapper now installed there.
func TestAggNameShadowsBuiltinAnnotation(t *testing.T) {
	spec := sumSpec()
	spec.Aggregator.AggName = "rev" // collide with a builtin stateless command
	s := NewSession(DefaultOptions(8))
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}
	plan, err := s.CompileExec("cat | rev")
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range plan.Items {
		for _, n := range item.Graph.Nodes {
			if n.Name == "rev" && (n.Framed || n.Kind == dfg.KindFused) {
				t.Errorf("shadowed rev still parallelized via builtin annotation: %v", n)
			}
			if n.Kind == dfg.KindFused {
				for _, st := range n.Stages {
					if st.Name == "rev" {
						t.Errorf("shadowed rev fused via builtin kernel")
					}
				}
			}
		}
	}
}

// TestUnannotatedCommandReadsStdin: a command registered with no
// annotation reads stdin at the head of a pipeline as well as behind a
// pipe, and never parallelizes.
func TestUnannotatedCommandReadsStdin(t *testing.T) {
	upper := CommandSpec{Name: "upper", Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
		_, err := io.Copy(stdout, stdin)
		return err
	}}
	in := strings.Repeat("some line\n", 10000)
	for _, width := range []int{1, 4} {
		for _, script := range []string{"upper | wc -l", "cat | upper | wc -l"} {
			if got := runExt(t, DefaultOptions(width), []CommandSpec{upper}, script, strings.NewReader(in)); got != "10000\n" {
				t.Errorf("width %d: %q printed %q, want 10000", width, script, got)
			}
		}
	}
}

// passKernel copies its input: the per-block form of shadowSpec.
type passKernel struct{}

func (passKernel) Apply(out, in []byte) []byte { return append(out, in...) }
func (passKernel) Finish(out []byte) []byte    { return out }
func (passKernel) Status() error               { return nil }

// shadowSpec is a stateless command with a kernel for any argv.
func shadowSpec(name string) CommandSpec {
	return CommandSpec{
		Name: name,
		Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
			_, err := io.Copy(stdout, stdin)
			return err
		},
		Annotation: name + " { | _ => (S, [stdin], [stdout]) }",
		Kernel:     func(args []string) (Kernel, bool) { return passKernel{}, true },
	}
}

// upperKernel maps every byte to upper case and records what it read.
type upperKernel struct{ seen *bytes.Buffer }

func (k upperKernel) Apply(out, in []byte) []byte {
	k.seen.Write(in)
	return append(out, bytes.ToUpper(in)...)
}
func (upperKernel) Finish(out []byte) []byte { return out }
func (upperKernel) Status() error            { return nil }

// TestShadowedTrGrepNeverCompose: the kernel layer hands a tr to the grep
// after it only when both are the builtins' own kernels. A user tr or
// grep registered under the builtin's name runs as its own stage: the
// user tr's map reaches grep, and the user grep reads tr's output.
func TestShadowedTrGrepNeverCompose(t *testing.T) {
	input := "Cold water\nWATER\nair\n"
	for _, tc := range []struct{ name, script, want, seen string }{
		{"tr", "tr A-Z a-z | grep WATER", "COLD WATER\nWATER\n", input},
		{"grep", "tr A-Z a-z | grep water", "COLD WATER\nWATER\nAIR\n", "cold water\nwater\nair\n"},
	} {
		var seen bytes.Buffer
		s := NewSession(DefaultOptions(1))
		err := s.Register(CommandSpec{
			Name: tc.name,
			Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
				_, err := io.Copy(stdout, stdin)
				return err
			},
			Annotation: tc.name + " { | _ => (S, [stdin], [stdout]) }",
			Kernel:     func(args []string) (Kernel, bool) { return upperKernel{&seen}, true },
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.CompileExec(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		fused := 0
		for _, item := range plan.Items {
			for _, n := range item.Graph.Nodes {
				if n.Kind == dfg.KindFused {
					fused++
				}
			}
		}
		if fused != 1 {
			t.Fatalf("%s: %d fused nodes, want the chain fused into 1", tc.script, fused)
		}
		var out bytes.Buffer
		if _, err := s.Run(context.Background(), tc.script, strings.NewReader(input), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want || seen.String() != tc.seen {
			t.Errorf("user %s in %q: printed %q, its kernel read %q; want %q and %q", tc.name, tc.script, out.String(), seen.String(), tc.want, tc.seen)
		}
	}
}

// TestShadowingIsWhole: a registration under a builtin's name plans
// exactly as the same spec under a fresh name — no semantic check of the
// builtin's record judges the user's argv — for every builtin whose
// record carries one. Re-registering a user-annotated name as an
// aggregate leaves it unannotated, and the aggregates the library
// installs are not user entries.
func TestShadowingIsWhole(t *testing.T) {
	shape := func(name, script string) (map[dfg.NodeKind]int, int) {
		t.Helper()
		s := NewSession(DefaultOptions(4))
		if err := s.Register(shadowSpec(name)); err != nil {
			t.Fatal(err)
		}
		plan, err := s.CompileExec(script)
		if err != nil {
			t.Fatal(err)
		}
		kinds, replicas := map[dfg.NodeKind]int{}, 0
		for _, item := range plan.Items {
			for _, n := range item.Graph.Nodes {
				kinds[n.Kind]++
				if n.Name == name {
					replicas++
				}
				for _, st := range n.Stages {
					if st.Name == name {
						replicas++
					}
				}
			}
		}
		return kinds, replicas
	}
	for _, tc := range []struct{ builtin, args string }{
		{"sed", "5q"},
		{"tr", `'\n' x`},
		{"xargs", "-n 3"},
		{"sort", "-R"},
		{"uniq", "a b"},
		{"paste", "a b"},
	} {
		wantKinds, want := shape("mycmd", "cat | mycmd "+tc.args)
		if want != 4 {
			t.Fatalf("mycmd %s: %d replicas, want 4", tc.args, want)
		}
		kinds, got := shape(tc.builtin, "cat | "+tc.builtin+" "+tc.args)
		if got != want || fmt.Sprint(kinds) != fmt.Sprint(wantKinds) {
			t.Errorf("shadowed %s %s plans %d replicas of %v, fresh name %d of %v", tc.builtin, tc.args, got, kinds, want, wantKinds)
		}
	}

	s := NewSession(DefaultOptions(4))
	if err := s.Register(shadowSpec("mytool")); err != nil {
		t.Fatal(err)
	}
	sum := sumSpec()
	sum.Aggregator.AggName = "mytool"
	if err := s.Register(sum); err != nil {
		t.Fatal(err)
	}
	if rec, ok := s.snapshot().Annot.Lookup("mytool"); ok {
		t.Errorf("mytool re-registered as an aggregate keeps the record %v", rec)
	}
	if e, ok := s.snapshot().Cmds.Entry("pash-agg-uniq"); !ok || e.User {
		t.Errorf("pash-agg-uniq: entry found %v, user %v; want a library entry", ok, e.User)
	}
}
