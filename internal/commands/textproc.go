package commands

import (
	"regexp"
	"strings"
)

func init() {
	register("html-to-text", htmlToText)
	register("word-stem", wordStem)
	register("trigrams", trigrams)
	register("bigrams-aux", bigramsAux)
}

var (
	tagRe    = regexp.MustCompile(`<[^>]*>`)
	entityRe = regexp.MustCompile(`&[a-zA-Z]+;`)
)

// htmlToText strips tags and entities, leaving the text content — the
// paper's HTML-to-text conversion stage (the dominant §6.4 cost).
func htmlToText(ctx *Context) error {
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	err := EachLine(ctx.stdin(), func(line []byte) error {
		out := tagRe.ReplaceAll(line, []byte(" "))
		out = entityRe.ReplaceAll(out, []byte(" "))
		trimmed := strings.TrimSpace(string(out))
		if trimmed == "" {
			return nil
		}
		return lw.WriteLine([]byte(trimmed))
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}

var stemSuffixes = []string{"ization", "ational", "fulness", "ousness",
	"iveness", "tional", "biliti", "lessli", "entli", "ation", "alism",
	"aliti", "ousli", "iviti", "fulli", "enci", "anci", "abli", "izer",
	"ator", "alli", "bli", "ing", "ed", "ly", "es", "s"}

// wordStem applies a lightweight Porter-style suffix stripper to each
// whitespace-separated word — the paper's word-stem stage (Python there).
func wordStem(ctx *Context) error {
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	err := EachLine(ctx.stdin(), func(line []byte) error {
		words := strings.Fields(string(line))
		for i, w := range words {
			words[i] = stemWord(w)
		}
		return lw.WriteLine([]byte(strings.Join(words, " ")))
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}

func stemWord(w string) string {
	lw := strings.ToLower(w)
	for _, suf := range stemSuffixes {
		if strings.HasSuffix(lw, suf) && len(lw)-len(suf) >= 3 {
			return lw[:len(lw)-len(suf)]
		}
	}
	return lw
}

// trigrams emits the word trigrams of each line, one per output line —
// a per-line (stateless) n-gram stage for the web-indexing pipeline.
func trigrams(ctx *Context) error {
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	err := EachLine(ctx.stdin(), func(line []byte) error {
		words := strings.Fields(string(line))
		for i := 0; i+2 < len(words); i++ {
			tri := words[i] + " " + words[i+1] + " " + words[i+2]
			if err := lw.WriteLine([]byte(tri)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}

// bigramsAux emits the bigrams of its one-word-per-line input stream.
// The classic Bi-grams script shifts the whole stream by one token
// (tail -n +2 | paste) to do this; Bi-grams-opt replaces that stream
// surgery with this fused command (§6.1).
//
// With --marked it also emits its chunk's first and last words on marker
// lines ("\x01F w" before the bigrams, "\x01L w" after), which lets the
// pash-agg-bigrams aggregator stitch the bigrams that straddle chunk
// boundaries — making the command a parallelizable pure command with a
// custom (map, aggregate) pair per §3.2.
func bigramsAux(ctx *Context) error {
	marked := false
	for _, a := range ctx.Args {
		switch a {
		case "--marked":
			marked = true
		default:
			return ctx.Errorf("unsupported flag %q", a)
		}
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	prev := ""
	havePrev := false
	err := EachLine(ctx.stdin(), func(line []byte) error {
		w := strings.TrimSpace(string(line))
		if w == "" {
			return nil
		}
		if !havePrev && marked {
			if err := lw.WriteLine([]byte("\x01F " + w)); err != nil {
				return err
			}
		}
		if havePrev {
			if err := lw.WriteLine([]byte(prev + " " + w)); err != nil {
				return err
			}
		}
		prev = w
		havePrev = true
		return nil
	})
	if err != nil {
		return err
	}
	if marked && havePrev {
		if err := lw.WriteLine([]byte("\x01L " + prev)); err != nil {
			return err
		}
	}
	return lw.Flush()
}
