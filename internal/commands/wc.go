package commands

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
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
// Columns take GNU's width (WcWidth); one input counted in one column
// prints the bare number.
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

	var width int
	emit := func(c wcCounts, name string) error {
		var cols []string
		if showLines {
			cols = append(cols, fmt.Sprintf("%*d", width, c.lines))
		}
		if showWords {
			cols = append(cols, fmt.Sprintf("%*d", width, c.words))
		}
		if showChars {
			cols = append(cols, fmt.Sprintf("%*d", width, c.chars))
		}
		if showBytes {
			cols = append(cols, fmt.Sprintf("%*d", width, c.bytes))
		}
		// GNU wc: right-aligned columns joined by one space; one input
		// counted in one column prints the bare number.
		row := strings.Join(cols, " ")
		if len(cols) == 1 && len(operands) < 2 {
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
	// The width of several files' rows is known only once all are
	// counted, so every file is counted before the first row.
	var (
		counts    []wcCounts
		total     wcCounts
		regular   int64 // the regular files' total size
		irregular bool  // an input that is not a regular file
		err       error
	)
	for _, name := range files {
		c, size, ok, ferr := wcFile(ctx, name, showWords || showChars)
		if err = ferr; err != nil {
			break
		}
		counts = append(counts, c)
		total.add(c)
		regular += size
		irregular = irregular || !ok
	}
	width = WcWidth(regular, irregular)
	for i, c := range counts {
		label := files[i]
		if len(operands) == 0 {
			label = ""
		}
		if werr := emit(c, label); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	if len(files) > 1 {
		if err := emit(total, "total"); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// wcFile counts one operand, "-" being stdin, and reports its size when
// it is a regular file. Stdin counts as a pipe whatever it is.
func wcFile(ctx *Context, name string, wordsOrChars bool) (wcCounts, int64, bool, error) {
	readers, cleanup, err := ctx.OpenInputs(sliceOf(name))
	if err != nil {
		return wcCounts{}, 0, false, err
	}
	defer cleanup()
	var size int64
	ok := false
	if name != "-" {
		size, ok = RegularSize(readers[0])
	}
	c, err := countStream(readers[0], wordsOrChars)
	return c, size, ok, err
}

// WcWidth is GNU wc's column width: the digits of the regular files'
// total size, and at least 7 when an input is not a regular file (stdin,
// a pipe, a device).
func WcWidth(regular int64, irregular bool) int {
	width := len(strconv.FormatInt(regular, 10))
	if irregular {
		width = max(width, 7)
	}
	return width
}

// RegularSize is the size of r when r is an open regular file.
func RegularSize(r io.Reader) (int64, bool) {
	if st, ok := r.(interface{ Stat() (os.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	}
	return 0, false
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
