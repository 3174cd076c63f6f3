package pash

// The extension-API speedup acceptance: a user-registered command with
// a KernelFactory and AggregatorSpec must demonstrably profit from the
// fast paths it joins. Following the reproduction's substitution rule
// (this host may have a single CPU), per-node works are measured for
// real in profiling mode and projected onto the multicore scheduling
// simulator — the same methodology as the Fig. 7 and aggregation-tree
// benchmarks.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// heavySpec is a CPU-bound custom command: `heavy` prefixes each line
// with an iterated FNV hash (stateless, kernel-backed); `heavy -t`
// prints one total (pure, aggregator-backed).
func heavySpec() CommandSpec {
	const rounds = 120
	hash := func(line []byte) uint32 {
		h := uint32(2166136261)
		for r := 0; r < rounds; r++ {
			for _, c := range line {
				h = (h ^ uint32(c)) * 16777619
			}
		}
		return h
	}
	perLine := func(out, line []byte) []byte {
		out = append(out, fmt.Sprintf("%08x ", hash(line))...)
		out = append(out, line...)
		return append(out, '\n')
	}
	return CommandSpec{
		Name: "heavy",
		Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
			total := false
			for _, a := range args {
				if a == "-t" {
					total = true
				}
			}
			data, err := io.ReadAll(stdin)
			if err != nil {
				return err
			}
			var sum uint64
			var out []byte
			for len(data) > 0 {
				i := bytes.IndexByte(data, '\n')
				line := data
				if i >= 0 {
					line, data = data[:i], data[i+1:]
				} else {
					data = nil
				}
				if total {
					sum += uint64(hash(line))
				} else {
					out = perLine(out, line)
				}
			}
			if total {
				out = strconv.AppendUint(out, sum, 10)
				out = append(out, '\n')
			}
			_, err = stdout.Write(out)
			return err
		},
		Annotation: NewAnnotation().
			When(Opt("-t"), ClassPure, []IO{Stdin()}, []IO{Stdout()}).
			Otherwise(ClassStateless, []IO{Stdin()}, []IO{Stdout()}),
		Kernel: func(args []string) (Kernel, bool) {
			if len(args) != 0 {
				return nil, false
			}
			return &heavyKernel{perLine: perLine}, true
		},
		Aggregator: &AggregatorSpec{
			AggName: "heavy-agg",
			AggArgs: []string{},
			Agg: func(args []string, inputs []io.Reader, stdout io.Writer) error {
				var sum uint64
				for _, r := range inputs {
					data, err := io.ReadAll(r)
					if err != nil {
						return err
					}
					for _, f := range strings.Fields(string(data)) {
						n, err := strconv.ParseUint(f, 10, 64)
						if err != nil {
							return err
						}
						sum += n
					}
				}
				_, err := fmt.Fprintf(stdout, "%d\n", sum)
				return err
			},
			Associative: true,
		},
	}
}

type heavyKernel struct {
	carry   []byte
	perLine func(out, line []byte) []byte
}

func (k *heavyKernel) Apply(out, in []byte) []byte {
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
		out = k.perLine(out, line)
		k.carry = k.carry[:0]
		in = in[i+1:]
	}
	return out
}

func (k *heavyKernel) Finish(out []byte) []byte {
	if len(k.carry) > 0 {
		out = k.perLine(out, k.carry)
		k.carry = k.carry[:0]
	}
	return out
}

func (k *heavyKernel) Status() error { return nil }

// extInput builds a deterministic workload.
func extInput(lines int) string {
	rng := rand.New(rand.NewSource(97))
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "payload-%d-%d some words here %d\n", i, rng.Int31(), rng.Int31())
	}
	return sb.String()
}

// measureExt runs a script with the heavy command registered, in
// profiling mode, and returns output plus the projected wall time on a
// simulated 8-core machine.
func measureExt(t testing.TB, opts Options, script, input string) (string, time.Duration) {
	t.Helper()
	s := NewSession(opts)
	if err := s.Register(heavySpec()); err != nil {
		t.Fatal(err)
	}
	cc := *s.snapshot()
	cc.Opts.MeasureMode = true
	var out bytes.Buffer
	in := core.NewInterp(&cc, "", nil,
		runtime.StdIO{Stdin: strings.NewReader(input), Stdout: &out})
	code, err := in.RunScript(context.Background(), script)
	if err != nil || code != 0 {
		t.Fatalf("%q: code=%d err=%v", script, code, err)
	}
	var total time.Duration
	for _, p := range in.Profiles {
		total += sim.Makespan(p.Graph, p.Times, sim.Config{
			Cores:           8,
			PerNodeOverhead: 200 * time.Microsecond,
		})
	}
	return out.String(), total
}

// extSpeedups measures the width-8 projected speedups of the
// kernel-backed and aggregator-backed forms over their sequential runs.
func extSpeedups(t testing.TB, lines int) (kernel, agg float64) {
	input := extInput(lines)

	rr := DefaultOptions(8)
	rr.SplitMode = SplitRoundRobin

	script := "heavy | tr a-f A-F"
	seqOut, seqTime := measureExt(t, SequentialOptions(), script, input)
	parOut, parTime := measureExt(t, rr, script, input)
	if seqOut != parOut {
		t.Fatalf("%q parallel output diverged", script)
	}
	kernel = float64(seqTime) / float64(parTime)

	script = "heavy -t"
	seqOut, seqTime = measureExt(t, SequentialOptions(), script, input)
	parOut, parTime = measureExt(t, DefaultOptions(8), script, input)
	if seqOut != parOut {
		t.Fatalf("%q parallel output diverged", script)
	}
	agg = float64(seqTime) / float64(parTime)
	return kernel, agg
}

// TestExtensionSpeedupAtWidth8: a user-registered command runs at
// width 8 in both the fused/rr-split form and the aggregation-tree
// form with output identical to its sequential run (extSpeedups fails
// the test on divergence). The projected speedups are logged, not
// asserted: they are built from measured per-node times, which flake
// under load.
func TestExtensionSpeedupAtWidth8(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run")
	}
	kernel, agg := extSpeedups(t, 12_000)
	t.Logf("width-8 projected speedup: fused+rr %.2fx, map+agg-tree %.2fx", kernel, agg)
}

// BenchmarkExtensionSpeedup reports the same metrics as benchmark
// units, alongside the real wall time of the parallel run.
func BenchmarkExtensionSpeedup(b *testing.B) {
	var kernel, agg float64
	for i := 0; i < b.N; i++ {
		kernel, agg = extSpeedups(b, 12_000)
	}
	b.ReportMetric(kernel, "fused-rr@8x")
	b.ReportMetric(agg, "agg-tree@8x")
}
