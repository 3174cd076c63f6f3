// Quickstart: run a classic word-frequency pipeline through PaSh and
// watch it parallelize — sequential first, then at width 8, comparing
// outputs and showing the compiled parallel script.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/paper"
	"repro/pash"
)

func main() {
	// McIlroy's word-frequency one-liner (§6.1 "Wf").
	script := `tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 10`
	input := paper.Text(50_000, 42)

	// 1. Sequential run.
	seq := pash.NewSession(pash.SequentialOptions())
	var seqOut strings.Builder
	if _, err := seq.Run(context.Background(), script,
		strings.NewReader(input), &seqOut, os.Stderr); err != nil {
		log.Fatal(err)
	}

	// 2. Parallel run at width 8 (the paper's "Par + Split" config).
	par := pash.NewSession(pash.DefaultOptions(8))
	var parOut strings.Builder
	code, stats, err := par.RunStats(context.Background(), script,
		strings.NewReader(input), &parOut, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top-10 words:")
	fmt.Print(parOut.String())
	fmt.Printf("\nexit status: %d\n", code)
	fmt.Printf("regions parallelized: %d, dataflow nodes: %d\n",
		stats.Regions, stats.TotalNodes)
	fmt.Printf("parallel output identical to sequential: %v\n",
		parOut.String() == seqOut.String())

	// 3. Show the Fig. 3-style compiled script for a static pipeline.
	plan, err := par.Compile(`grep -c needle haystack.txt`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompiled parallel script for `grep -c needle haystack.txt`:")
	if err := plan.Emit(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
