package paper

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

// This file holds the two §6.5 comparison systems:
//
//   - the multi-threaded sort that GNU sort's --parallel flag provides
//     (reached through our sort command's --parallel flag), and
//   - a GNU-parallel-style blind parallelizer that splits stdin into line
//     blocks and runs the *whole* pipeline on each block concurrently —
//     fast, but breaking semantics for any pipeline with cross-block
//     state (the paper measured 92% output divergence).

// runScript runs script over stdin in dir under opts and returns stdout.
func runScript(ctx context.Context, opts core.Options, script, stdin, dir string) (string, error) {
	var out bytes.Buffer
	_, err := core.Run(ctx, core.NewCompiler(opts), script, dir, nil, runtime.StdIO{
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
	})
	return out.String(), err
}

// naiveParallel runs the script over stdin the way a careless
// `parallel --pipe` invocation would: split the input into width
// contiguous line blocks, run an independent sequential copy of the
// script on each, and concatenate the outputs in block order. No
// command-awareness, no aggregators — exactly the failure mode PaSh's
// conservative analysis avoids.
func naiveParallel(ctx context.Context, script, stdin, dir string, width int) (string, error) {
	lines := strings.SplitAfter(stdin, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	per := (len(lines) + width - 1) / width
	outs := make([]string, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for w := range width {
		block := strings.Join(lines[min(w*per, len(lines)):min((w+1)*per, len(lines))], "")
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w], errs[w] = runScript(ctx, core.Options{Width: 1, Preset: core.NoEager}, script, block, dir)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", fmt.Errorf("paper: naive parallel block failed: %w", err)
		}
	}
	return strings.Join(outs, ""), nil
}

// divergence reports the fraction (0..1) of output lines that differ
// between two outputs, the paper's "92% of the output showing a
// difference" metric. It counts line-level mismatches against the longer
// output's length.
func divergence(a, b string) float64 {
	la := strings.Split(strings.TrimRight(a, "\n"), "\n")
	lb := strings.Split(strings.TrimRight(b, "\n"), "\n")
	n := max(len(la), len(lb))
	if len(la) == 1 && la[0] == "" && len(lb) == 1 && lb[0] == "" {
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

// parallelSort runs our sort command with GNU's --parallel flag — the
// §6.5 "sort --parallel" baseline (command-internal threading, no PaSh).
func parallelSort(input string, threads int, flags ...string) (string, error) {
	var out bytes.Buffer
	err := commands.Std().Run("sort", &commands.Context{
		Args:   append([]string{fmt.Sprintf("--parallel=%d", threads)}, flags...),
		Stdin:  strings.NewReader(input),
		Stdout: &out,
	})
	return out.String(), err
}
