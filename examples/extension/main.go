// Extension: make a user command a first-class citizen of the
// parallelizing compiler with the typed extension API.
//
// The custom command here is `score`, a CPU-heavy per-line hasher:
//
//	score        stateless — prefixes each line with an iterated hash
//	score -t     pure      — prints one total over the whole stream
//
// One CommandSpec registration gives it everything a builtin has:
//
//   - a typed annotation (clause-per-flag classification),
//   - a Kernel, so stateless invocations round-robin split and fuse
//     into single-goroutine chains with builtins like tr,
//   - an AggregatorSpec, so `score -t` parallelizes as map+aggregate
//     and joins fan-in aggregation trees at high widths.
//
// The program registers the command, proves parallel output is
// byte-identical to sequential, times both, and inspects the planned
// graphs to show the custom command really sits inside fused nodes and
// aggregation trees.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/dfg"
	"repro/internal/workload"
	"repro/pash"
)

// hashRounds makes each line expensive enough that parallelism pays.
const hashRounds = 200

func scoreLine(line []byte) uint32 {
	h := uint32(2166136261)
	for r := 0; r < hashRounds; r++ {
		for _, c := range line {
			h = (h ^ uint32(c)) * 16777619
		}
	}
	return h
}

// runScore is the command implementation (both modes).
func runScore(args []string, stdin io.Reader, stdout io.Writer) error {
	total := false
	for _, a := range args {
		if a == "-t" {
			total = true
		}
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	var sum uint64
	for sc.Scan() {
		h := scoreLine(sc.Bytes())
		if total {
			sum += uint64(h)
		} else {
			fmt.Fprintf(w, "%08x %s\n", h, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if total {
		fmt.Fprintf(w, "%d\n", sum)
	}
	return nil
}

// scoreKernel is the per-block form of stateless `score`: it carries
// partial lines across arbitrarily-chunked blocks, which is what lets
// the invocation fuse with neighbors and run framed under round-robin
// splits.
type scoreKernel struct{ carry []byte }

func (k *scoreKernel) Apply(out, in []byte) []byte {
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

func (k *scoreKernel) emit(out, line []byte) []byte {
	out = append(out, fmt.Sprintf("%08x ", scoreLine(line))...)
	out = append(out, line...)
	return append(out, '\n')
}

func (k *scoreKernel) Finish(out []byte) []byte {
	if len(k.carry) > 0 {
		out = k.emit(out, k.carry)
		k.carry = k.carry[:0]
	}
	return out
}

func (k *scoreKernel) Status() error { return nil }

// sumAggregator merges `score -t` partials: the total of totals.
func sumAggregator(args []string, inputs []io.Reader, stdout io.Writer) error {
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
}

// scoreSpec is the complete typed registration.
func scoreSpec() pash.CommandSpec {
	return pash.CommandSpec{
		Name: "score",
		Run:  runScore,
		Annotation: pash.NewAnnotation().
			When(pash.Opt("-t"), pash.ClassPure,
				[]pash.IO{pash.Stdin()}, []pash.IO{pash.Stdout()}).
			Otherwise(pash.ClassStateless,
				[]pash.IO{pash.Stdin()}, []pash.IO{pash.Stdout()}),
		Kernel: func(args []string) (pash.Kernel, bool) {
			for _, a := range args {
				if a != "-" {
					return nil, false // -t (and anything else) has no per-block form
				}
			}
			return &scoreKernel{}, true
		},
		Aggregator: &pash.AggregatorSpec{
			Agg:         sumAggregator,
			AggName:     "score-sum",
			AggArgs:     []string{},
			Associative: true, // sums of sums re-aggregate: tree-shaped fan-in is sound
		},
	}
}

func newSession(opts pash.Options) *pash.Session {
	s := pash.NewSession(opts)
	if err := s.Register(scoreSpec()); err != nil {
		log.Fatal(err)
	}
	return s
}

func run(s *pash.Session, script, input string) (string, time.Duration) {
	var out strings.Builder
	start := time.Now()
	code, err := s.Run(context.Background(), script, strings.NewReader(input), &out, io.Discard)
	if err != nil || code != 0 {
		log.Fatalf("%q: code=%d err=%v", script, code, err)
	}
	return out.String(), time.Since(start)
}

func main() {
	input := workload.Text(40_000, 7)
	seq := newSession(pash.SequentialOptions())
	par := newSession(pash.DefaultOptions(8))

	// 1. The stateless form: round-robin split + fusion with tr.
	script := "score | tr a-f A-F"
	seqOut, seqWall := run(seq, script, input)
	parOut, parWall := run(par, script, input)
	fmt.Printf("%-18s width 1: %8s   width 8: %8s   identical: %v\n",
		script, seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond),
		seqOut == parOut)

	// 2. The pure form: map + aggregation tree.
	script = "score -t"
	seqOut, seqWall = run(seq, script, input)
	parOut, parWall = run(par, script, input)
	fmt.Printf("%-18s width 1: %8s   width 8: %8s   identical: %v (total %s)\n",
		script, seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond),
		seqOut == parOut, strings.TrimSpace(parOut))

	// 3. Structure: the custom command really is inside the fast paths.
	plan, err := par.CompileExec("score | tr a-f A-F")
	if err != nil {
		log.Fatal(err)
	}
	fused, rrSplits := 0, 0
	for _, item := range plan.Items {
		if item.Graph == nil {
			continue
		}
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindFused {
				for _, st := range n.Stages {
					if st.Name == "score" {
						fused++
					}
				}
			}
			if n.Kind == dfg.KindSplit && n.Split == dfg.RoundRobinSplit {
				rrSplits++
			}
		}
	}
	fmt.Printf("planned graph: %d fused stages running the score kernel, %d streaming rr split(s)\n",
		fused, rrSplits)

	plan, err = par.CompileExec("score -t")
	if err != nil {
		log.Fatal(err)
	}
	aggs := 0
	for _, item := range plan.Items {
		if item.Graph == nil {
			continue
		}
		for _, n := range item.Graph.Nodes {
			if n.Kind == dfg.KindAgg && n.Name == "score-sum" {
				aggs++
			}
		}
	}
	fmt.Printf("planned graph: score -t aggregates through %d score-sum nodes (fan-in tree at width 8)\n", aggs)

	// 4. The Graphviz view (`pash -graph` prints the same thing).
	fmt.Printf("graphviz export: %d bytes of dot (pipe `pash -graph` into dot -Tsvg)\n",
		len(plan.Dot()))
}
