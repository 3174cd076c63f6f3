package core

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// meteredStream serves a bounded synthetic line stream and counts how
// much of it was actually read.
type meteredStream struct {
	line   []byte
	max    int64
	served int64
}

func (m *meteredStream) Read(p []byte) (int, error) {
	if m.served >= m.max {
		return 0, io.EOF
	}
	n := 0
	for n+len(m.line) <= len(p) && m.served < m.max {
		n += copy(p[n:], m.line)
		m.served += int64(len(m.line))
	}
	if n == 0 {
		n = copy(p, m.line)
		m.served += int64(n)
	}
	return n, nil
}

// TestHeadEarlyExitThroughInterpreter is the end-to-end early-exit
// regression: a prefix-taker (head -n) at the end of a parallelized
// fused chain must stop the upstream splitter promptly. Before the
// StopsEarly fix, t2 planted a barrier split in front of head, which
// drained the entire stream the maps would never read.
func TestHeadEarlyExitThroughInterpreter(t *testing.T) {
	const total = 256 << 20
	cases := []struct {
		name  string
		opts  Options
		slack int64
	}{
		// Sequential: head stops the chain after two lines.
		{"width1", Options{Width: 1}, 8 << 20},
		// Bounded pipes: run-ahead is capped by pipe capacities, so the
		// bound is tight.
		{"width8-lazy", Options{Width: 8, Preset: SplitNoEager}, 32 << 20},
		// Unbounded eager buffers never backpressure the splitter, so
		// run-ahead is scheduling-dependent; before the StopsEarly fix
		// the barrier split deterministically drained all 256MB.
		{"width8-eager", DefaultOptions(8), total / 2},
	}
	for _, tc := range cases {
		src := &meteredStream{line: []byte("steady stream of words\n"), max: total}
		var out strings.Builder
		c := NewCompiler(tc.opts)
		interp := NewInterp(c, "", nil, runtime.StdIO{Stdin: src, Stdout: &out})
		code, err := interp.RunScript(context.Background(), `tr a-z A-Z | grep -v QQQ | head -n 2`)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != 0 {
			t.Fatalf("%s: exit %d", tc.name, code)
		}
		want := "STEADY STREAM OF WORDS\nSTEADY STREAM OF WORDS\n"
		if out.String() != want {
			t.Fatalf("%s: output %q", tc.name, out.String())
		}
		if src.served > tc.slack {
			t.Fatalf("%s: early exit failed: %d bytes consumed (>%d) of %d",
				tc.name, src.served, tc.slack, int64(total))
		}
		t.Logf("%s: consumed %.1fMB of %dMB", tc.name, float64(src.served)/(1<<20), total>>20)
	}
}
