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
// boundaries need fixing. With -c the straddling runs' counts are added.
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

	type rec struct {
		count int64
		line  []byte
	}
	parse := func(raw []byte) (rec, error) {
		if !counting {
			return rec{count: 1, line: append([]byte(nil), raw...)}, nil
		}
		// uniq -c format: %7d SPACE line.
		trimmed := bytes.TrimLeft(raw, " ")
		sp := bytes.IndexByte(trimmed, ' ')
		if sp < 0 {
			return rec{}, fmt.Errorf("pash-agg-uniq: malformed count line %q", raw)
		}
		n, err := strconv.ParseInt(string(trimmed[:sp]), 10, 64)
		if err != nil {
			return rec{}, fmt.Errorf("pash-agg-uniq: bad count in %q", raw)
		}
		return rec{count: n, line: append([]byte(nil), trimmed[sp+1:]...)}, nil
	}
	emit := func(r rec) error {
		if counting {
			return lw.WriteString(fmt.Sprintf("%7d %s\n", r.count, r.line))
		}
		return lw.WriteLine(r.line)
	}

	pending := rec{}
	havePending := false
	for _, r := range readers {
		it := commands.NewLineIter(r)
		firstOfChunk := true
		for {
			raw, ok := it.Next()
			if !ok {
				break
			}
			cur, err := parse(raw)
			if err != nil {
				return err
			}
			if havePending && firstOfChunk && bytes.Equal(pending.line, cur.line) {
				// Run straddles the boundary: merge into pending.
				pending.count += cur.count
				firstOfChunk = false
				continue
			}
			if havePending {
				if err := emit(pending); err != nil {
					return err
				}
			}
			pending = cur
			havePending = true
			firstOfChunk = false
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	if havePending {
		if err := emit(pending); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// aggWc sums the numeric columns of the per-chunk wc outputs, preserving
// wc's formatting (bare number for a single column, %7d columns
// otherwise). It handles any of wc's column subsets (wc -lw, -lwc, ...).
func aggWc(ctx *commands.Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if strings.HasPrefix(a, "-") && a != "-" {
			// Column-selection flags only affect formatting of the
			// inputs, which we infer from the data itself.
			continue
		}
		operands = append(operands, a)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	var sums []int64
	for _, r := range readers {
		err := commands.EachLine(r, func(line []byte) error {
			fields := bytes.Fields(line)
			for i, f := range fields {
				n, err := strconv.ParseInt(string(f), 10, 64)
				if err != nil {
					return fmt.Errorf("pash-agg-wc: non-numeric column %q", f)
				}
				if i >= len(sums) {
					sums = append(sums, 0)
				}
				sums[i] += n
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	lw := commands.NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	if len(sums) == 1 {
		if err := lw.WriteString(strconv.FormatInt(sums[0], 10) + "\n"); err != nil {
			return err
		}
		return lw.Flush()
	}
	var sb strings.Builder
	for i, s := range sums {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%7d", s)
	}
	if err := lw.WriteString(sb.String() + "\n"); err != nil {
		return err
	}
	return lw.Flush()
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
