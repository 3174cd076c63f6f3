package runtime

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
)

// benchFusionInput builds ~8 MiB of multi-field lines with mixed case,
// about half of which survive the grep stage.
func benchFusionInput() []byte {
	var sb bytes.Buffer
	i := 0
	for sb.Len() < 8<<20 {
		marker := "chaff"
		if i%2 == 0 {
			marker = "Signal"
		}
		fmt.Fprintf(&sb, "field%d %s Payload-%d alpha beta gamma delta epsilon zeta eta theta\n", i%97, marker, i)
		i++
	}
	return sb.Bytes()
}

// BenchmarkFusion is the tentpole's acceptance benchmark: a 3-stage
// stateless chain (tr | grep | cut) executed as three goroutines with
// two chunk pipes (unfused) versus one goroutine running the composed
// kernels in place (fused). The bar is fused >= 2x unfused throughput.
//
//	fused    — fusion planned and executed (the default configuration)
//	unfused  — fusion disabled at planning: the pre-fusion graph
//	fallback — fused graph, kernel loop disabled at execution
//	           (Config.DisableFusion): isolates planning from execution
func BenchmarkFusion(b *testing.B) {
	input := benchFusionInput()
	chain := [][2]interface{}{
		{"tr", []string{"A-Z", "a-z"}},
		{"grep", []string{"signal"}},
		{"cut", []string{"-d", " ", "-f", "2,4-6"}},
	}
	reg := fusedReg()

	run := func(b *testing.B, disablePlan bool, cfg Config) {
		b.SetBytes(int64(len(input)))
		var out int64
		for i := 0; i < b.N; i++ {
			g := buildChainGraph(b, 1, disablePlan, chain...)
			counter := &countWriter{}
			_, err := Execute(context.Background(), g, reg,
				StdIO{Stdin: bytes.NewReader(input), Stdout: counter}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			out = counter.n
		}
		if out == 0 {
			b.Fatal("benchmark produced no output")
		}
	}

	b.Run("fused", func(b *testing.B) { run(b, false, Config{}) })
	b.Run("unfused", func(b *testing.B) { run(b, true, Config{}) })
	b.Run("fallback", func(b *testing.B) { run(b, false, Config{DisableFusion: true}) })
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkFusedWidth sweeps the framed round-robin shape: split ->
// width x fused(tr|grep|cut) -> merge, fused vs unfused, showing the
// orchestration saving grow with width (3w goroutines and 2w pipes
// collapse to w goroutines).
func BenchmarkFusedWidth(b *testing.B) {
	input := benchFusionInput()[:4<<20]
	chain := [][2]interface{}{
		{"tr", []string{"A-Z", "a-z"}},
		{"grep", []string{"signal"}},
		{"cut", []string{"-d", " ", "-f", "2,4-6"}},
	}
	reg := fusedReg()
	for _, width := range []int{4, 16} {
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"fused", false}, {"unfused", true}} {
			b.Run(fmt.Sprintf("w%d-%s", width, mode.name), func(b *testing.B) {
				b.SetBytes(int64(len(input)))
				for i := 0; i < b.N; i++ {
					g := buildChainGraph(b, width, mode.disable, chain...)
					_, err := Execute(context.Background(), g, reg,
						StdIO{Stdin: bytes.NewReader(input), Stdout: io.Discard}, Config{})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
