// Weather analysis: the paper's running example (Fig. 1, §6.3). Builds a
// synthetic NOAA archive, then runs the max-temperature script — first
// sequentially, then through PaSh — comparing results and timing.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/paper"
	"repro/pash"
)

// The Fig. 1 script, fetching the per-year listing explicitly (the
// offline curl resolves URLs under the PASH_CURL_ROOT directory).
const script = `base="ftp://host/noaa";
for y in {2015..2019}; do
 curl -s $base/$y.index | grep gz | tr -s ' ' | cut -d ' ' -f9 |
 sed "s;^;$base/$y/;" | xargs -n 1 curl -s | gunzip |
 cut -c 89-92 | grep -v 999 | sort -rn | head -n 1 |
 sed "s/^/Maximum temperature for $y is: /"
done`

func main() {
	root, err := os.MkdirTemp("", "noaa-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	fmt.Println("generating synthetic NOAA archive (5 years)...")
	if err := paper.NOAAArchive(root, 8, 5000, 1); err != nil {
		log.Fatal(err)
	}

	run := func(width int) (string, time.Duration) {
		s := pash.NewSession(pash.DefaultOptions(width))
		if width == 1 {
			s.SetOptions(pash.SequentialOptions())
		}
		s.Vars = map[string]string{"PASH_CURL_ROOT": root}
		var out strings.Builder
		start := time.Now()
		if _, err := s.Run(context.Background(), script,
			strings.NewReader(""), &out, os.Stderr); err != nil {
			log.Fatal(err)
		}
		return out.String(), time.Since(start)
	}

	seqOut, seqDur := run(1)
	fmt.Print(seqOut)
	fmt.Printf("sequential: %v\n", seqDur.Round(time.Millisecond))

	parOut, parDur := run(8)
	if parOut != seqOut {
		log.Fatal("width 8 output differs from sequential")
	}
	fmt.Printf("pash width 8: %v (output identical)\n", parDur.Round(time.Millisecond))
}
