// Web indexing: the §6.4 use case. Builds a synthetic Wikipedia
// fragment, registers a custom text-processing command *with an
// annotation record* (the light-touch extensibility story of §3.2), and
// runs the indexing pipeline sequentially and in parallel, exiting 1
// when the two outputs differ.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/paper"
	"repro/pash"
)

const script = `cat urls.txt | xargs -n 1 curl -s | html-to-text | word-stem |
tr -cs a-z '\n' | grep -v '^$' | sort | uniq -c | sort -rn | head -n 15`

func main() {
	root, err := os.MkdirTemp("", "wiki-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	if err := paper.WebCorpus(root, 60, 25, 3); err != nil {
		log.Fatal(err)
	}

	run := func(width int) string {
		var opts pash.Options
		if width == 1 {
			opts = pash.SequentialOptions()
		} else {
			opts = pash.DefaultOptions(width)
		}
		s := pash.NewSession(opts)
		s.Dir = root
		s.Vars = map[string]string{"PASH_CURL_ROOT": root}

		// A downstream user's custom command: strip stop words. One
		// annotation record is all PaSh needs to parallelize it (§3.2) —
		// "the annotation for the remaining commands amounts to a
		// single record".
		if err := s.Register(pash.CommandSpec{
			Name:       "strip-stopwords",
			Run:        stripStopwords,
			Annotation: "strip-stopwords { | _ => (S, [stdin], [stdout]) }",
		}); err != nil {
			log.Fatal(err)
		}

		custom := strings.Replace(script, "grep -v '^$'", "grep -v '^$' | strip-stopwords", 1)
		var out strings.Builder
		if _, err := s.Run(context.Background(), custom,
			strings.NewReader(""), &out, os.Stderr); err != nil {
			log.Fatal(err)
		}
		return out.String()
	}

	seqOut := run(1)
	parOut := run(8)
	fmt.Println("top terms (stop words removed):")
	fmt.Print(parOut)
	if parOut != seqOut {
		log.Fatal("parallel output differs from sequential")
	}
	fmt.Println("parallel output identical to sequential")
}

// stripStopwords drops blank lines and a few English stop words.
func stripStopwords(args []string, stdin io.Reader, stdout io.Writer) error {
	stop := map[string]bool{"the": true, "of": true, "and": true, "a": true, "to": true}
	buf, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if line == "" || stop[line] {
			continue
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}
