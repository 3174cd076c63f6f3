package runtime

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
)

func fusedReg() *commands.Registry {
	r := commands.NewStd()
	agg.Install(r)
	return r
}

// buildChainGraph wires stdin -> specs... -> stdout and applies the
// transformations with fusion capability information.
func buildChainGraph(t testing.TB, width int, mode dfg.SplitMode, disableFusion bool, specs ...[2]interface{}) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	var prev *dfg.Node
	for i, spec := range specs {
		name := spec[0].(string)
		var args []dfg.Arg
		for _, a := range spec[1].([]string) {
			args = append(args, dfg.Lit(a))
		}
		n := dfg.NewNode(dfg.KindCommand, name, args, annot.Stateless)
		g.AddNode(n)
		if i == 0 {
			e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindStdin}, To: n})
			n.In = append(n.In, e)
		} else {
			g.Connect(prev, n)
		}
		n.StdinInput = len(n.In) - 1
		prev = n
	}
	e := g.AddEdge(&dfg.Edge{From: prev, Sink: dfg.Binding{Kind: dfg.BindStdout}})
	prev.Out = append(prev.Out, e)
	dfg.Apply(g, dfg.Options{
		Width: width, Split: width > 1, Eager: dfg.EagerFull, SplitMode: mode,
		KernelCapable: commands.KernelCapable, DisableFusion: disableFusion,
	})
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return g
}

var fusedChain = [][2]interface{}{
	{"tr", []string{"a-z", "A-Z"}},
	{"grep", []string{"-v", "XYZZY"}},
	{"cut", []string{"-d", " ", "-f", "1-2"}},
}

func randomLinesInput(rng *rand.Rand, n int) string {
	var sb strings.Builder
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "xyzzy"}
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(5)
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		sb.WriteByte('\n')
	}
	if n > 0 && rng.Intn(2) == 0 {
		sb.WriteString("final unterminated line")
	}
	return sb.String()
}

func countFused(g *dfg.Graph) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == dfg.KindFused {
			n++
		}
	}
	return n
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// TestFusedExitStatus: a fused node ending in grep propagates grep's
// no-match status as the chain's exit code, matching pipeline
// semantics for the collapsed segment.
func TestFusedExitStatus(t *testing.T) {
	g := buildChainGraph(t, 1, dfg.SplitAuto, false,
		[2]interface{}{"tr", []string{"a-z", "A-Z"}},
		[2]interface{}{"grep", []string{"NOSUCHTOKEN"}},
	)
	var out bytes.Buffer
	res, err := Execute(context.Background(), g, fusedReg(),
		StdIO{Stdin: strings.NewReader("plain text\n"), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 1 {
		t.Fatalf("exit code %d, want 1 (grep no match)", res.ExitCode)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output %q", out.String())
	}
	// And status 0 when it matches.
	res, err = Execute(context.Background(), g, fusedReg(),
		StdIO{Stdin: strings.NewReader("nosuchtoken here\n"), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit code %d, want 0", res.ExitCode)
	}
}

// TestFusedStageMeters: the fused loop attributes per-stage time and
// byte traffic even though no pipes separate the stages.
func TestFusedStageMeters(t *testing.T) {
	g := buildChainGraph(t, 1, dfg.SplitAuto, false, fusedChain...)
	input := randomLinesInput(rand.New(rand.NewSource(5)), 2000)
	var out bytes.Buffer
	res, err := Execute(context.Background(), g, fusedReg(),
		StdIO{Stdin: strings.NewReader(input), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var fusedTimes []NodeTime
	for _, nt := range res.NodeTimes {
		if len(nt.Stages) > 0 {
			fusedTimes = append(fusedTimes, nt)
		}
	}
	if len(fusedTimes) != 1 {
		t.Fatalf("expected 1 fused node time, got %d", len(fusedTimes))
	}
	st := fusedTimes[0].Stages
	if len(st) != 3 || st[0].Name != "tr" || st[1].Name != "grep" || st[2].Name != "cut" {
		t.Fatalf("stage names wrong: %+v", st)
	}
	if st[0].BytesIn != int64(len(input)) {
		t.Fatalf("tr stage BytesIn = %d, want %d", st[0].BytesIn, len(input))
	}
	if st[1].BytesIn != st[0].BytesOut {
		t.Fatalf("stage byte chain broken: grep in %d != tr out %d", st[1].BytesIn, st[0].BytesOut)
	}
	if st[2].BytesOut != int64(out.Len()) {
		t.Fatalf("cut stage BytesOut = %d, want %d", st[2].BytesOut, out.Len())
	}
}

// countingReader counts bytes served from an endless synthetic stream.
type countingReader struct {
	line   []byte
	max    int64
	served int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.served >= c.max {
		return 0, io.EOF
	}
	n := 0
	for n+len(c.line) <= len(p) && c.served < c.max {
		n += copy(p[n:], c.line)
		c.served += int64(len(c.line))
	}
	if n == 0 {
		n = copy(p, c.line)
		c.served += int64(n)
	}
	return n, nil
}

// TestFusedEarlyExit is the early-exit regression: when a downstream
// head closes its input after one line, the fused chain and the
// round-robin splitter upstream must stop promptly instead of draining
// the whole (large) input.
func TestFusedEarlyExit(t *testing.T) {
	const total = 256 << 20 // far more than anyone should read
	for _, width := range []int{1, 4} {
		src := &countingReader{line: []byte("steady stream of lines\n"), max: total}
		g := dfg.New()
		var prev *dfg.Node
		for _, spec := range fusedChain {
			var args []dfg.Arg
			for _, a := range spec[1].([]string) {
				args = append(args, dfg.Lit(a))
			}
			n := dfg.NewNode(dfg.KindCommand, spec[0].(string), args, annot.Stateless)
			g.AddNode(n)
			if prev == nil {
				e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindStdin}, To: n})
				n.In = append(n.In, e)
			} else {
				g.Connect(prev, n)
			}
			n.StdinInput = len(n.In) - 1
			prev = n
		}
		head := dfg.NewNode(dfg.KindCommand, "head", []dfg.Arg{dfg.Lit("-n"), dfg.Lit("1")}, annot.Pure)
		g.AddNode(head)
		g.Connect(prev, head)
		head.StdinInput = 0
		e := g.AddEdge(&dfg.Edge{From: head, Sink: dfg.Binding{Kind: dfg.BindStdout}})
		head.Out = append(head.Out, e)
		dfg.Apply(g, dfg.Options{
			Width: width, Split: width > 1, Eager: dfg.EagerNone, SplitMode: dfg.SplitRoundRobin,
			KernelCapable: commands.KernelCapable,
		})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if countFused(g) == 0 {
			t.Fatalf("width %d: chain did not fuse", width)
		}

		var out bytes.Buffer
		res, err := Execute(context.Background(), g, fusedReg(),
			StdIO{Stdin: src, Stdout: &out}, Config{})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("width %d: exit %d", width, res.ExitCode)
		}
		if got := out.String(); got != "STEADY STREAM\n" {
			t.Fatalf("width %d: output %q", width, got)
		}
		read := atomic.LoadInt64(&src.served)
		// Prompt termination: bounded pipes and block granularity allow
		// some run-ahead, but nothing near the full input.
		const slack = 64 << 20
		if read > slack {
			t.Fatalf("width %d: early exit failed: upstream consumed %d bytes (>%d) of %d",
				width, read, int64(slack), int64(total))
		}
		t.Logf("width %d: consumed %s of %s before stopping", width,
			fmt.Sprintf("%.1fMB", float64(read)/(1<<20)), fmt.Sprintf("%dMB", total>>20))
	}
}
