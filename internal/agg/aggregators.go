package agg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/commands"
)

// aggUniq merges the outputs of parallel uniq instances. Within each
// chunk lines are already deduplicated; only runs that straddle chunk
// boundaries need fixing: plain uniq drops a line equal to the one before
// it, and with -c the count stage's printer adds the straddling runs'
// counts.
func aggUniq(ctx *commands.Context) error {
	counting := false
	var operands []string
	for _, a := range ctx.Args {
		switch {
		case a == "-c":
			counting = true
		case strings.HasPrefix(a, "-") && a != "-":
			return ctx.Errorf("unsupported flag %q", a)
		default:
			operands = append(operands, a)
		}
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := commands.NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	runs := commands.CountRuns{Out: lw}
	var last []byte
	have := false
	err = commands.EachLineReaders(readers, func(raw []byte) error {
		if counting {
			n, line, ok := commands.CutUniqCount(raw)
			if !ok {
				return fmt.Errorf("pash-agg-uniq: malformed count line %q", raw)
			}
			return runs.Add(line, n)
		}
		if have && bytes.Equal(raw, last) {
			return nil
		}
		last, have = append(last[:0], raw...), true
		return lw.WriteLine(raw)
	})
	if err == nil {
		err = runs.Flush()
	}
	if err != nil {
		return err
	}
	return lw.Flush()
}

// aggWc sums the numeric columns of the per-chunk wc outputs, preserving
// wc's formatting: a bare number for a single column, and otherwise
// columns as wide as wc makes them for its input — 7 for stdin, the
// digits of the file's size for the file --label=NAME names. It handles
// any of wc's column subsets (wc -lw, -lwc, ...). --label=NAME appends
// the file name as wc prints it; a labelled input row (an interior tree
// node's) parses by its leading columns.
func aggWc(ctx *commands.Context) error {
	var operands []string
	label, cols := "", map[rune]bool{}
	for _, a := range ctx.Args {
		switch {
		case strings.HasPrefix(a, "--label="):
			label = a[len("--label="):]
		case strings.HasPrefix(a, "-") && a != "-":
			for _, c := range a[1:] {
				cols[c] = true
			}
		default:
			operands = append(operands, a)
		}
	}
	ncols := len(cols)
	if ncols == 0 {
		ncols = 3 // lines, words, bytes
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	sums := make([]int64, ncols)
	for _, r := range readers {
		err := commands.EachLine(r, func(line []byte) error {
			fields := bytes.Fields(line)
			if len(fields) < ncols || label == "" && len(fields) > ncols {
				return fmt.Errorf("pash-agg-wc: row %q does not have %d columns", line, ncols)
			}
			for i, f := range fields[:ncols] {
				n, err := strconv.ParseInt(string(f), 10, 64)
				if err != nil {
					return fmt.Errorf("pash-agg-wc: non-numeric column %q", f)
				}
				sums[i] += n
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	width := 7
	if label != "" {
		width = sizeDigits(ctx.FS, label)
	}
	var sb strings.Builder
	for i, s := range sums {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%*d", width, s)
	}
	row := sb.String()
	if ncols == 1 {
		row = strings.TrimLeft(row, " ")
	}
	if label != "" {
		row += " " + label
	}
	lw := commands.NewLineWriter(ctx.Stdout)
	if err := lw.WriteString(row + "\n"); err != nil {
		return err
	}
	return lw.Flush()
}

// sizeDigits is the width wc gives the columns of one file operand:
// WcWidth of the file's size, or of no regular file when it is not one.
func sizeDigits(fs commands.FS, name string) int {
	f, err := fs.Open(name)
	if err != nil {
		return commands.WcWidth(0, true)
	}
	defer f.Close()
	size, ok := commands.RegularSize(f)
	return commands.WcWidth(size, !ok)
}

// aggSum adds one integer per input line across all inputs (grep -c).
func aggSum(ctx *commands.Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if strings.HasPrefix(a, "-") && a != "-" {
			return ctx.Errorf("unsupported flag %q", a)
		}
		operands = append(operands, a)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	var total int64
	for _, r := range readers {
		err := commands.EachLine(r, func(line []byte) error {
			n, err := strconv.ParseInt(strings.TrimSpace(string(line)), 10, 64)
			if err != nil {
				return fmt.Errorf("pash-agg-sum: non-numeric line %q", line)
			}
			total += n
			return nil
		})
		if err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(ctx.Stdout, "%d\n", total)
	return err
}

// aggTac concatenates its inputs in reverse order: since each map
// instance already reversed its chunk, reading the chunks back-to-front
// reproduces tac of the whole stream.
func aggTac(ctx *commands.Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if strings.HasPrefix(a, "-") && a != "-" {
			return ctx.Errorf("unsupported flag %q", a)
		}
		operands = append(operands, a)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	// Inputs after the first may still be producing; buffering the later
	// ones while draining in reverse order needs the tail inputs
	// materialized first. Eager edges make this cheap; we simply read in
	// reverse index order, relaying whole blocks by ownership transfer
	// when the edges allow it.
	for i := len(readers) - 1; i >= 0; i-- {
		if _, err := commands.CopyChunks(ctx.Stdout, readers[i]); err != nil {
			return err
		}
	}
	return nil
}

// Marker prefixes for the bigram map/aggregate pair. The map emits its
// chunk's first and last words out of band; the aggregate stitches the
// missing cross-boundary bigrams back in.
const (
	bigramFirstMark = "\x01F "
	bigramLastMark  = "\x01L "
)

// aggBigrams stitches marked per-chunk bigram streams (§3.2's custom
// map/aggregate invariants, instantiated for stream shifting).
func aggBigrams(ctx *commands.Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if strings.HasPrefix(a, "-") && a != "-" {
			return ctx.Errorf("unsupported flag %q", a)
		}
		operands = append(operands, a)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := commands.NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	pendingLast := ""
	havePendingLast := false
	for _, r := range readers {
		it := commands.NewLineIter(r)
		for {
			raw, ok := it.Next()
			if !ok {
				break
			}
			line := string(raw)
			switch {
			case strings.HasPrefix(line, bigramFirstMark):
				first := line[len(bigramFirstMark):]
				if havePendingLast {
					if err := lw.WriteLine([]byte(pendingLast + " " + first)); err != nil {
						return err
					}
				}
			case strings.HasPrefix(line, bigramLastMark):
				pendingLast = line[len(bigramLastMark):]
				havePendingLast = true
			default:
				if err := lw.WriteLine(raw); err != nil {
					return err
				}
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return lw.Flush()
}
