// Package baseline implements the §6.5 comparison systems:
//
//   - the multi-threaded sort that GNU sort's --parallel flag provides
//     (reached through our sort command's --parallel flag), and
//   - naivepar, a GNU-parallel-style blind parallelizer that splits
//     stdin into line blocks and runs the *whole* pipeline on each block
//     concurrently — fast, but breaking semantics for any pipeline with
//     cross-block state (the paper measured 92% output divergence).
package baseline

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/commands"
	"repro/internal/core"
	"repro/internal/runtime"
)

// NaiveParallel runs the script over stdin the way a careless
// `parallel --pipe` invocation would: split the input into width
// contiguous line blocks, run an independent sequential copy of the
// script on each, and concatenate the outputs in block order. No
// command-awareness, no aggregators — exactly the failure mode PaSh's
// conservative analysis avoids.
func NaiveParallel(ctx context.Context, script, stdin, dir string, vars map[string]string, width int) (string, error) {
	lines := splitKeepNL(stdin)
	if width < 1 {
		width = 1
	}
	per := (len(lines) + width - 1) / width
	type res struct {
		out string
		err error
	}
	results := make([]res, width)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		lo := w * per
		hi := lo + per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		block := strings.Join(lines[lo:hi], "")
		wg.Add(1)
		go func(w int, block string) {
			defer wg.Done()
			c := core.NewCompiler(core.Options{Width: 1, Preset: core.NoEager})
			var out bytes.Buffer
			_, err := core.Run(ctx, c, script, dir, vars, runtime.StdIO{
				Stdin:  strings.NewReader(block),
				Stdout: &out,
			})
			results[w] = res{out: out.String(), err: err}
		}(w, block)
	}
	wg.Wait()
	var sb strings.Builder
	for _, r := range results {
		if r.err != nil {
			return "", fmt.Errorf("baseline: naive parallel block failed: %w", r.err)
		}
		sb.WriteString(r.out)
	}
	return sb.String(), nil
}

func splitKeepNL(s string) []string {
	var out []string
	for len(s) > 0 {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i+1])
		s = s[i+1:]
	}
	return out
}

// Divergence reports the fraction (0..1) of output lines that differ
// between two outputs, the paper's "92% of the output showing a
// difference" metric. It counts line-level mismatches against the longer
// output's length.
func Divergence(a, b string) float64 {
	la := strings.Split(strings.TrimRight(a, "\n"), "\n")
	lb := strings.Split(strings.TrimRight(b, "\n"), "\n")
	n := len(la)
	if len(lb) > n {
		n = len(lb)
	}
	if n == 0 || (len(la) == 1 && la[0] == "" && len(lb) == 1 && lb[0] == "") {
		return 0
	}
	diff := 0
	for i := 0; i < n; i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			diff++
		}
	}
	return float64(diff) / float64(n)
}

// ParallelSort runs our sort command with GNU's --parallel flag — the
// §6.5 "sort --parallel" baseline (command-internal threading, no PaSh).
func ParallelSort(input string, threads int, flags ...string) (string, error) {
	args := append([]string{fmt.Sprintf("--parallel=%d", threads)}, flags...)
	var out bytes.Buffer
	ctx := &commands.Context{
		Args:   args,
		Stdin:  strings.NewReader(input),
		Stdout: &out,
	}
	if err := commands.Std().Run("sort", ctx); err != nil {
		return "", err
	}
	return out.String(), nil
}
