// Command pash compiles or runs a POSIX shell script with PaSh's
// parallelizing transformations.
//
// Usage:
//
//	pash [-width N] [-no-split] [-eager MODE] [-curl-root DIR] script.sh
//	pash -c 'cat f | grep x | sort'
//	pash -emit script.sh     # print the Fig. 3-style parallel script
//	pash -graph -c '...'     # print the optimized DFG as Graphviz dot
//	pash -stats -c '...'     # report region/node statistics
//
// With -workers, stateless chains execute on `pash-serve -worker`
// processes instead of locally (add -shared-fs when the workers see
// this machine's files, enabling zero-input-shipping file-range
// shards):
//
//	pash -workers http://w1:8722,http://w2:8722 -c 'cat f | tr A-Z a-z | grep x'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dfg"
	"repro/pash"
)

func main() {
	var (
		width    = flag.Int("width", 4, "parallelism width ceiling (1 = sequential): each region runs as wide as its input pays for, at most this")
		noSplit  = flag.Bool("no-split", false, "disable split insertion (t2)")
		eager    = flag.String("eager", "full", "eager mode: none|blocking|full")
		emit     = flag.Bool("emit", false, "emit the compiled parallel script instead of running")
		graph    = flag.Bool("graph", false, "print the optimized dataflow graph as Graphviz dot instead of running")
		script   = flag.String("c", "", "script source (instead of a file argument)")
		stats    = flag.Bool("stats", false, "print region statistics to stderr")
		curlRoot = flag.String("curl-root", os.Getenv("PASH_CURL_ROOT"), "offline root for the curl simulation")
		dir      = flag.String("dir", "", "working directory for file access")
		workers  = flag.String("workers", "", "comma-separated worker addresses for distributed execution")
		sharedFS = flag.Bool("shared-fs", false, "workers share this filesystem (enables file-range shards)")
	)
	flag.Parse()

	src := *script
	if src == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pash [flags] script.sh  |  pash [flags] -c 'script'")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pash: %v\n", err)
			os.Exit(1)
		}
		src = string(data)
	}

	opts := pash.DefaultOptions(*width)
	// -width is a ceiling: the planner sizes each region from its input.
	opts.PlanWidth = true
	if *noSplit {
		opts.Split = false
	}
	switch *eager {
	case "none":
		opts.Eager = dfg.EagerNone
	case "blocking":
		opts.Eager = dfg.EagerBlocking
		opts.BlockingEagerBytes = 1 << 20
	case "full":
		opts.Eager = dfg.EagerFull
	default:
		fmt.Fprintf(os.Stderr, "pash: unknown eager mode %q\n", *eager)
		os.Exit(2)
	}

	s := pash.NewSession(opts)
	s.Dir = *dir
	if *curlRoot != "" {
		s.Vars = map[string]string{"PASH_CURL_ROOT": *curlRoot}
	}
	if *workers != "" {
		// Pool.Add normalizes and skips empty pieces of the raw split.
		pool := pash.NewWorkerPool(strings.Split(*workers, ",")...)
		pool.SetSharedFS(*sharedFS)
		s.UseWorkers(pool)
		// Background prober: a worker that dies mid-run drains out of
		// planning, and one that comes back rejoins, without restarting.
		stop := pool.StartProber(context.Background())
		defer stop()
	}

	if *graph {
		// The in-process execution view: fused stages, streaming
		// splits, aggregation trees — what the interpreter would run.
		plan, err := s.CompileExec(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pash: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(plan.Dot())
		return
	}

	if *emit {
		plan, err := s.Compile(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pash: %v\n", err)
			os.Exit(1)
		}
		if err := plan.Emit(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pash: %v\n", err)
			os.Exit(1)
		}
		return
	}

	code, st, err := s.RunStats(context.Background(), src, os.Stdin, os.Stdout, os.Stderr)
	if *stats {
		fmt.Fprintf(os.Stderr, "pash: %d region(s), %d total nodes, largest region %d nodes, plan cache %d hit / %d miss\n",
			st.Regions, st.TotalNodes, st.MaxNodes, st.PlanHits, st.PlanMisses)
		if st.Regions > 0 {
			fmt.Fprintf(os.Stderr, "pash: planned %s\n", st.Widths)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pash: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
