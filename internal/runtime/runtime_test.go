package runtime

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
)

func testRegistry() *commands.Registry {
	r := commands.NewStd()
	agg.Install(r)
	return r
}

// buildPipeline constructs stdin -> nodes... -> stdout.
func buildPipeline(nodes ...*dfg.Node) *dfg.Graph {
	g := dfg.New()
	var prev *dfg.Node
	for i, n := range nodes {
		g.AddNode(n)
		if i == 0 {
			e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindStdin}, To: n})
			n.In = append(n.In, e)
			n.StdinInput = 0
		} else {
			g.Connect(prev, n)
			n.StdinInput = len(n.In) - 1
		}
		prev = n
	}
	e := g.AddEdge(&dfg.Edge{From: prev, Sink: dfg.Binding{Kind: dfg.BindStdout}})
	prev.Out = append(prev.Out, e)
	return g
}

func execGraph(t *testing.T, g *dfg.Graph, stdin string, cfg Config) string {
	t.Helper()
	var out bytes.Buffer
	res, err := Execute(context.Background(), g, testRegistry(),
		StdIO{Stdin: strings.NewReader(stdin), Stdout: &out}, cfg)
	if err != nil {
		t.Fatalf("Execute: %v\n%s", err, g.Dump())
	}
	_ = res
	return out.String()
}

func TestExecuteSimplePipeline(t *testing.T) {
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("a")}, annot.Stateless),
		dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
	)
	got := execGraph(t, g, "apple\nberry\navocado\n", Config{})
	if got != "APPLE\nAVOCADO\n" {
		t.Errorf("pipeline = %q", got)
	}
}

func TestExecuteTransformedStateless(t *testing.T) {
	for _, eager := range []dfg.EagerMode{dfg.EagerNone, dfg.EagerBlocking, dfg.EagerFull} {
		g := buildPipeline(
			dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("a")}, annot.Stateless),
			dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
		)
		opts := dfg.Options{Width: 4, Split: true, Eager: eager}
		if eager == dfg.EagerBlocking {
			opts.BlockingEagerBytes = 1 << 20
		}
		dfg.Apply(g, opts)
		got := execGraph(t, g, "apple\nberry\navocado\nbanana\ncherry\napricot\n", Config{})
		if got != "APPLE\nAVOCADO\nBANANA\nAPRICOT\n" {
			t.Errorf("eager=%v: parallel pipeline = %q", eager, got)
		}
	}
}

func TestExecuteMapAggregate(t *testing.T) {
	sortNode := dfg.NewNode(dfg.KindCommand, "sort", []dfg.Arg{dfg.Lit("-rn")}, annot.Pure)
	sortNode.Agg = &dfg.AggSpec{
		MapName: "sort", MapArgs: []string{"-rn"},
		AggName: "sort", AggArgs: []string{"-m", "-rn"},
	}
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("[0-9]")}, annot.Stateless),
		sortNode,
	)
	dfg.Apply(g, dfg.Options{Width: 3, Split: true, Eager: dfg.EagerFull})
	got := execGraph(t, g, "5\n3\n9\n1\n7\n2\n8\n", Config{})
	if got != "9\n8\n7\n5\n3\n2\n1\n" {
		t.Errorf("map/agg sort = %q", got)
	}
}

func TestExecuteFileInputAndOutput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte("b\na\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := dfg.New()
	n := dfg.NewNode(dfg.KindCommand, "sort", nil, annot.Pure)
	g.AddNode(n)
	in := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: "in.txt"}, To: n})
	n.In = append(n.In, in)
	n.StdinInput = 0
	out := g.AddEdge(&dfg.Edge{From: n, Sink: dfg.Binding{Kind: dfg.BindFile, Path: "out.txt"}})
	n.Out = append(n.Out, out)

	if _, err := Execute(context.Background(), g, testRegistry(), StdIO{}, Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\nb\nc\n" {
		t.Errorf("out.txt = %q", data)
	}
}

func TestInputAwareFileSplit(t *testing.T) {
	dir := t.TempDir()
	var content strings.Builder
	for i := 0; i < 1000; i++ {
		content.WriteString(strings.Repeat("w", i%13+1))
		content.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(content.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, aware := range []bool{false, true} {
		g := dfg.New()
		n := dfg.NewNode(dfg.KindCommand, "wc", []dfg.Arg{dfg.Lit("-l")}, annot.Pure)
		n.Agg = &dfg.AggSpec{MapName: "wc", MapArgs: []string{"-l"}, AggName: "pash-agg-wc", AggArgs: []string{"-l"}}
		g.AddNode(n)
		in := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: "in.txt"}, To: n})
		n.In = append(n.In, in)
		n.StdinInput = 0
		out := g.AddEdge(&dfg.Edge{From: n, Sink: dfg.Binding{Kind: dfg.BindStdout}})
		n.Out = append(n.Out, out)
		dfg.Apply(g, dfg.Options{Width: 4, Split: true, Eager: dfg.EagerFull, InputAwareSplit: aware})
		want := dfg.BarrierSplit
		if aware {
			want = dfg.FileRangeSplit
		}
		for _, n := range g.Nodes {
			if n.Kind == dfg.KindSplit && n.Split != want {
				t.Fatalf("aware=%v: planned the %v split, want %v", aware, n.Split, want)
			}
		}

		var buf bytes.Buffer
		_, err := Execute(context.Background(), g, testRegistry(),
			StdIO{Stdout: &buf}, Config{Dir: dir})
		if err != nil {
			t.Fatalf("aware=%v: %v", aware, err)
		}
		if got := strings.TrimSpace(buf.String()); got != "1000" {
			t.Errorf("aware=%v: wc -l = %q, want 1000", aware, got)
		}
	}
}

func TestEarlyConsumerExitTerminatesProducers(t *testing.T) {
	// seq-like infinite producer: yes | head -n 3 must terminate.
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "yes", []dfg.Arg{dfg.Lit("hi")}, annot.SideEffectful),
		dfg.NewNode(dfg.KindCommand, "head", []dfg.Arg{dfg.Lit("-n"), dfg.Lit("3")}, annot.Pure),
	)
	got := execGraph(t, g, "", Config{})
	if got != "hi\nhi\nhi\n" {
		t.Errorf("yes | head -n 3 = %q", got)
	}
}

func TestHeadOverParallelStages(t *testing.T) {
	// The §5.2 dangling-FIFO scenario: a parallel stage feeding a cat
	// feeding head; head exits before ever opening later inputs.
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
		dfg.NewNode(dfg.KindCommand, "head", []dfg.Arg{dfg.Lit("-n"), dfg.Lit("1")}, annot.Pure),
	)
	dfg.Apply(g, dfg.Options{Width: 4, Split: true, Eager: dfg.EagerFull})
	var in strings.Builder
	for i := 0; i < 10000; i++ {
		in.WriteString("line\n")
	}
	got := execGraph(t, g, in.String(), Config{})
	if got != "LINE\n" {
		t.Errorf("head over parallel stages = %q", got)
	}
}

func TestMultiInputCat(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "f1"), []byte("one\n"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "f2"), []byte("two\n"), 0o644))
	g := dfg.New()
	n := dfg.NewNode(dfg.KindCat, "cat", []dfg.Arg{dfg.InArg(0), dfg.InArg(1)}, annot.Stateless)
	g.AddNode(n)
	for _, f := range []string{"f1", "f2"} {
		e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: f}, To: n})
		n.In = append(n.In, e)
	}
	out := g.AddEdge(&dfg.Edge{From: n, Sink: dfg.Binding{Kind: dfg.BindStdout}})
	n.Out = append(n.Out, out)

	var buf bytes.Buffer
	if _, err := Execute(context.Background(), g, testRegistry(), StdIO{Stdout: &buf}, Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "one\ntwo\n" {
		t.Errorf("cat f1 f2 = %q", buf.String())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipeSemantics(t *testing.T) {
	p := newPipe(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 16 bytes through an 8-byte pipe requires concurrent reading.
		if _, err := p.Write(bytes.Repeat([]byte("x"), 16)); err != nil {
			t.Errorf("write: %v", err)
		}
		p.CloseWrite()
	}()
	buf, err := io.ReadAll(readEnd{p})
	if err != nil || len(buf) != 16 {
		t.Fatalf("read: %d bytes, %v", len(buf), err)
	}
	<-done
}

func TestPipeDownstreamClosed(t *testing.T) {
	p := newPipe(4)
	p.CloseRead()
	if _, err := p.Write([]byte("data")); err != ErrDownstreamClosed {
		t.Errorf("write after CloseRead: %v, want ErrDownstreamClosed", err)
	}
}

func TestUnboundedPipeNeverBlocks(t *testing.T) {
	p := newPipe(0)
	// A megabyte of writes with no reader must not block.
	for i := 0; i < 1024; i++ {
		if _, err := p.Write(bytes.Repeat([]byte("y"), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	p.CloseWrite()
	data, err := io.ReadAll(readEnd{p})
	if err != nil || len(data) != 1<<20 {
		t.Fatalf("read back %d bytes, %v", len(data), err)
	}
}

func TestExitCodePropagation(t *testing.T) {
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("nomatch")}, annot.Stateless),
	)
	var out bytes.Buffer
	res, err := Execute(context.Background(), g, testRegistry(),
		StdIO{Stdin: strings.NewReader("abc\n"), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 1 {
		t.Errorf("exit code = %d, want 1 (grep no match)", res.ExitCode)
	}
}

func TestFileSplitAlignment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	content := "aa\nbbbb\nc\ndddddd\ne\n"
	must(t, os.WriteFile(path, []byte(content), 0o644))
	for width := 1; width <= 6; width++ {
		streams := make([]*edgeStream, width)
		ws := make([]io.WriteCloser, width)
		for i := range ws {
			streams[i] = newEdgeStream(true, 0)
			ws[i] = streams[i].writer()
		}
		if err := fileSplit(commands.OSFS{}, path, ws); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		var all strings.Builder
		for _, s := range streams {
			data, err := io.ReadAll(s.reader())
			if err != nil {
				t.Fatal(err)
			}
			chunk := string(data)
			if chunk != "" && !strings.HasSuffix(chunk, "\n") {
				t.Errorf("width %d: chunk %q not newline-terminated", width, chunk)
			}
			all.WriteString(chunk)
		}
		if all.String() != content {
			t.Errorf("width %d: reassembled %q != original", width, all.String())
		}
	}
}
