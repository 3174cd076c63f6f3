// Spell: Johnson's classic spell checker (§6.1), the pipeline that
// showcases comm's per-clause annotation — PaSh parallelizes
// `comm -23 - dict` as a stateless filter over its first input while
// replicating the dictionary as a config input to every instance
// (the paper's §3.2 example record).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/paper"
	"repro/pash"
)

const script = `cat essay.txt | iconv -f utf-8 -t ascii | tr -cs A-Za-z '\n' |
tr A-Z a-z | tr -d '0-9' | sort | uniq | comm -23 - dict.txt`

func main() {
	dir, err := os.MkdirTemp("", "spell-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "essay.txt"),
		[]byte(paper.Text(40_000, 11)), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := paper.Dictionary(filepath.Join(dir, "dict.txt")); err != nil {
		log.Fatal(err)
	}

	run := func(opts pash.Options) string {
		s := pash.NewSession(opts)
		s.Dir = dir
		var out strings.Builder
		if _, err := s.Run(context.Background(), script,
			strings.NewReader(""), &out, os.Stderr); err != nil {
			log.Fatal(err)
		}
		return out.String()
	}

	seq := run(pash.SequentialOptions())
	par := run(pash.DefaultOptions(8))
	fmt.Println("words not in the dictionary:")
	fmt.Print(par)
	if par != seq {
		log.Fatal("parallel output differs from sequential")
	}
	fmt.Println("parallel output identical to sequential")

	// Show what the compiler did with the comm stage.
	s := pash.NewSession(pash.DefaultOptions(4))
	plan, err := s.Compile(`comm -23 words.txt dict.txt`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompiled plan for `comm -23 words.txt dict.txt`")
	fmt.Println("(note the comm replicas, each reading dict.txt as config):")
	if err := plan.Emit(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
