package commands

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

func init() { register("wc", wc) }

// wcCounts holds the per-input tallies.
type wcCounts struct {
	lines, words, bytes, chars int64
}

func (c *wcCounts) add(o wcCounts) {
	c.lines += o.lines
	c.words += o.words
	c.bytes += o.bytes
	c.chars += o.chars
}

// wc counts lines, words, bytes, and characters. Flags: -l, -w, -c, -m.
// Default output is lines, words, bytes. Multiple files get a totals row.
func wc(ctx *Context) error {
	var showLines, showWords, showBytes, showChars bool
	var operands []string
	for _, a := range ctx.Args {
		switch {
		case a == "-" || !strings.HasPrefix(a, "-"):
			operands = append(operands, a)
		default:
			for _, c := range a[1:] {
				switch c {
				case 'l':
					showLines = true
				case 'w':
					showWords = true
				case 'c':
					showBytes = true
				case 'm':
					showChars = true
				default:
					return ctx.Errorf("unsupported flag -%c", c)
				}
			}
		}
	}
	if !showLines && !showWords && !showBytes && !showChars {
		showLines, showWords, showBytes = true, true, true
	}

	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	emit := func(c wcCounts, name string) error {
		var cols []string
		if showLines {
			cols = append(cols, fmt.Sprintf("%7d", c.lines))
		}
		if showWords {
			cols = append(cols, fmt.Sprintf("%7d", c.words))
		}
		if showChars {
			cols = append(cols, fmt.Sprintf("%7d", c.chars))
		}
		if showBytes {
			cols = append(cols, fmt.Sprintf("%7d", c.bytes))
		}
		// GNU wc: 7-wide right-aligned columns joined by one space; a
		// single-column result prints the bare number.
		row := strings.Join(cols, " ")
		if len(cols) == 1 {
			row = strings.TrimLeft(row, " ")
		}
		if name != "" {
			row += " " + name
		}
		return lw.WriteLine([]byte(row))
	}

	files := operands
	if len(files) == 0 {
		files = []string{"-"}
	}
	var total wcCounts
	for _, name := range files {
		readers, cleanup, err := ctx.OpenInputs(sliceOf(name))
		if err != nil {
			return err
		}
		c, err := countStream(readers[0], showWords || showChars)
		cleanup()
		if err != nil {
			return err
		}
		total.add(c)
		label := name
		if len(operands) == 0 {
			label = ""
		}
		if err := emit(c, label); err != nil {
			return err
		}
	}
	if len(files) > 1 {
		if err := emit(total, "total"); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// countStream tallies r. Lines and bytes are always counted, by a
// newline search and a length per block; only when words or chars are
// asked for does it look at every byte.
func countStream(r io.Reader, wordsOrChars bool) (wcCounts, error) {
	var c wcCounts
	inWord := false
	tally := func(buf []byte) {
		c.bytes += int64(len(buf))
		c.lines += int64(bytes.Count(buf, newline))
		if !wordsOrChars {
			return
		}
		for _, b := range buf {
			space := b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
			if space {
				inWord = false
			} else if !inWord {
				inWord = true
				c.words++
			}
			// Character count: count UTF-8 leading bytes.
			if b < 0x80 || b >= 0xC0 {
				c.chars++
			}
		}
	}
	for {
		b, release, err := NextBlock(r)
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		tally(b)
		release()
	}
}
