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
		Annotation: StdinStdout(ClassStateless),
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
		Annotation: StdinStdout(ClassPure),
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
		rrOpts.SplitMode = SplitRoundRobin
		rrOpts.DisableFusion = true
		rr := runExt(t, rrOpts, specs, script,
			&chunkyReader{data: input, rng: rand.New(rand.NewSource(int64(round) + 100))})

		fusedOpts := DefaultOptions(8)
		fusedOpts.SplitMode = SplitRoundRobin
		fused := runExt(t, fusedOpts, specs, script,
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
	s.RegisterCommand("grep", func(args []string, stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		fmt.Fprintf(stdout, "custom-grep:%s\n", strings.Join(args, ","))
		return nil
	})
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

// TestAnnotationBuilderClauses exercises the predicate combinators
// through classification behavior: a guarded clause demotes -s
// invocations to side-effectful (sequential), everything else stays
// stateless and parallelizes.
func TestAnnotationBuilderClauses(t *testing.T) {
	spec := revSpec()
	spec.Annotation = NewAnnotation().
		When(AnyOf(Opt("-s"), AllOf(Opt("-x"), Not(Opt("-y")))), ClassSideEffectful, nil, nil).
		Otherwise(ClassStateless, []IO{Stdin()}, []IO{Stdout()})
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
		t.Errorf("-x invocation replicas = %d, want 0 (AllOf(-x, Not(-y)))", got)
	}
	// -x -y: the AllOf guard fails (Not(-y) is false) → stateless arm.
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
		Annotation: NewAnnotation(),
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
		Annotation: StdinStdout(ClassPure),
		Aggregator: &AggregatorSpec{AggName: "x", AggArgs: []string{"-m"}},
	}); err != nil {
		t.Errorf("self-aggregating spec rejected: %v", err)
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
