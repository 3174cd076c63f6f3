package commands

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

func init() {
	register("head", head)
	register("tail", tail)
}

// headTailSpec is a parsed head or tail invocation; the two share one
// argv grammar.
type headTailSpec struct {
	n        int64
	bytes    bool
	fromLine bool // the count was spelled +N (tail -n +N: from line N on)
	// allBut: the count was spelled -N, and n is N. head then prints all
	// but the last N lines or bytes; to tail, -N is N.
	allBut   bool
	operands []string
}

// parseHeadTail parses head's and tail's argv. Errors are returned plain;
// the commands wrap them through ctx.Errorf.
func parseHeadTail(args []string) (*headTailSpec, error) {
	spec := &headTailSpec{n: 10}
	for i := 0; i < len(args); i++ {
		a := args[i]
		grab := func(attached string) (string, error) {
			if attached != "" {
				return attached, nil
			}
			i++
			if i >= len(args) {
				return "", fmt.Errorf("option %q requires an argument", a)
			}
			return args[i], nil
		}
		parseN := func(v string) error {
			spec.fromLine, spec.allBut = strings.HasPrefix(v, "+"), strings.HasPrefix(v, "-")
			digits := v
			if spec.fromLine || spec.allBut {
				digits = v[1:]
			}
			n, err := strconv.ParseUint(digits, 10, 63)
			if err != nil {
				return fmt.Errorf("invalid count %q", v)
			}
			spec.n = int64(n)
			return nil
		}
		switch {
		case strings.HasPrefix(a, "-n"):
			v, err := grab(a[2:])
			if err != nil {
				return nil, err
			}
			if err := parseN(v); err != nil {
				return nil, err
			}
		case strings.HasPrefix(a, "-c"):
			v, err := grab(a[2:])
			if err != nil {
				return nil, err
			}
			spec.bytes = true
			if err := parseN(v); err != nil {
				return nil, err
			}
		case a == "-":
			spec.operands = append(spec.operands, a)
		case len(a) > 1 && a[0] == '-' && a[1] >= '0' && a[1] <= '9':
			// Legacy -NUM form.
			if err := parseN(a[1:]); err != nil {
				return nil, err
			}
		case strings.HasPrefix(a, "-"):
			return nil, fmt.Errorf("unsupported flag %q", a)
		default:
			spec.operands = append(spec.operands, a)
		}
	}
	return spec, nil
}

// HeadTailLines returns the count of a head or tail invocation that
// keeps a fixed number of whole lines from its end of the input, in any
// spelling of the count (-n N, -nN, -N, or the default), and reports
// whether it is one. Those are the forms the aggregator library
// parallelizes; byte counts, +N, -n -N (head: all but the last N) and an
// argv the commands reject are not.
func HeadTailLines(args []string) (int, bool) {
	spec, err := parseHeadTail(args)
	if err != nil || spec.bytes || spec.fromLine || spec.allBut {
		return 0, false
	}
	return int(spec.n), true
}

// head emits the first N lines (-n, default 10) or bytes (-c) of its
// inputs' concatenation (no "==> f <==" headers); with the count spelled
// -N, all but the last N.
func head(ctx *Context) error {
	spec, err := parseHeadTail(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	readers, cleanup, err := ctx.OpenInputs(spec.operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	if spec.allBut {
		return headAllBut(lw, readers, spec)
	}
	if spec.bytes {
		var left = spec.n
		for _, r := range readers {
			if left <= 0 {
				break
			}
			n, err := io.CopyN(lw, r, left)
			left -= n
			if err != nil && err != io.EOF {
				return err
			}
		}
		return lw.Flush()
	}

	count := int64(0)
	stop := io.EOF
	err = EachLineReaders(readers, func(line []byte) error {
		if count >= spec.n {
			return stop
		}
		count++
		return lw.WriteLine(line)
	})
	if err != nil && err != stop {
		return err
	}
	return lw.Flush()
}

// headAllBut is head -n -N and head -c -N: every line or byte but the
// last N, printed as soon as N more have been read behind it.
func headAllBut(lw *LineWriter, readers []io.Reader, spec *headTailSpec) error {
	if spec.bytes {
		var held []byte
		buf := make([]byte, 64*1024)
		for _, r := range readers {
			for {
				n, err := r.Read(buf)
				held = append(held, buf[:n]...)
				// Write out once the held bytes are twice what must stay
				// held, or a buffer more: each byte is moved once or twice.
				if over := int64(len(held)) - spec.n; over > max(spec.n, int64(len(buf))) {
					if _, err := lw.Write(held[:over]); err != nil {
						return err
					}
					held = held[:copy(held, held[over:])]
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		if over := int64(len(held)) - spec.n; over > 0 {
			if _, err := lw.Write(held[:over]); err != nil {
				return err
			}
		}
		return lw.Flush()
	}
	// A ring of the last N+1 lines, grown as lines come: the newest line
	// goes in and the one N before it comes out.
	var ring [][]byte
	total := int64(0)
	err := EachLineReaders(readers, func(line []byte) error {
		slot := total % (spec.n + 1)
		if slot == int64(len(ring)) {
			ring = append(ring, nil)
		}
		ring[slot] = append(ring[slot][:0], line...)
		total++
		if total > spec.n {
			return lw.WriteLine(ring[(total-1-spec.n)%(spec.n+1)])
		}
		return nil
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}

// tail emits the last N lines (-n N, or -n -N), everything from line N
// on (-n +N), or the last N bytes (-c) of its inputs' concatenation.
func tail(ctx *Context) error {
	spec, err := parseHeadTail(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	readers, cleanup, err := ctx.OpenInputs(spec.operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	if spec.fromLine {
		// tail -n +N: print from the Nth line (1-based) onward.
		lineNo := int64(0)
		err = EachLineReaders(readers, func(line []byte) error {
			lineNo++
			if lineNo < spec.n {
				return nil
			}
			return lw.WriteLine(line)
		})
		if err != nil {
			return err
		}
		return lw.Flush()
	}

	if spec.bytes {
		// Keep a rolling buffer of the last N bytes.
		keep := spec.n
		buf := make([]byte, 0, keep)
		tmp := make([]byte, 64*1024)
		for _, r := range readers {
			for {
				n, err := r.Read(tmp)
				if n > 0 {
					buf = append(buf, tmp[:n]...)
					if int64(len(buf)) > keep {
						buf = buf[int64(len(buf))-keep:]
					}
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		if _, err := lw.Write(buf); err != nil {
			return err
		}
		return lw.Flush()
	}

	// Ring buffer of the last N lines.
	if spec.n <= 0 {
		return lw.Flush()
	}
	ring := make([][]byte, spec.n)
	total := int64(0)
	err = EachLineReaders(readers, func(line []byte) error {
		slot := total % spec.n
		ring[slot] = append(ring[slot][:0], line...)
		total++
		return nil
	})
	if err != nil {
		return err
	}
	start := int64(0)
	if total > spec.n {
		start = total - spec.n
	}
	for i := start; i < total; i++ {
		if err := lw.WriteLine(ring[i%spec.n]); err != nil {
			return err
		}
	}
	return lw.Flush()
}
