package commands

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

func init() { register("cut", cut) }

// cutSpec is a parsed cut invocation.
type cutSpec struct {
	ranges   []cutRange
	delim    byte
	suppress bool
	charMode bool
	operands []string
}

// parseCutArgs parses cut's argv. Errors are returned plain; the
// command path wraps them through ctx.Errorf.
func parseCutArgs(args []string) (*cutSpec, error) {
	var fieldList, charList string
	spec := &cutSpec{delim: '\t'}
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
		switch {
		case strings.HasPrefix(a, "-f"):
			v, err := grab(a[2:])
			if err != nil {
				return nil, err
			}
			fieldList = v
		case strings.HasPrefix(a, "-c"), strings.HasPrefix(a, "-b"):
			v, err := grab(a[2:])
			if err != nil {
				return nil, err
			}
			charList = v
		case strings.HasPrefix(a, "-d"):
			v, err := grab(a[2:])
			if err != nil {
				return nil, err
			}
			if len(v) != 1 {
				return nil, fmt.Errorf("delimiter must be a single character")
			}
			spec.delim = v[0]
		case a == "-s":
			spec.suppress = true
		case a == "-":
			spec.operands = append(spec.operands, a)
		case strings.HasPrefix(a, "-"):
			return nil, fmt.Errorf("unsupported flag %q", a)
		default:
			spec.operands = append(spec.operands, a)
		}
	}
	if (fieldList == "") == (charList == "") {
		return nil, fmt.Errorf("specify exactly one of -f or -c/-b")
	}
	list := fieldList
	if list == "" {
		list = charList
		spec.charMode = true
	}
	ranges, err := parseCutList(list)
	if err != nil {
		return nil, fmt.Errorf("bad list %q: %v", list, err)
	}
	spec.ranges = ranges
	return spec, nil
}

// cut selects fields (-f, with -d delimiter, default TAB) or character
// positions (-c, -b) from each line. List syntax: N, N-M, N-, -M,
// comma-separated. -s suppresses lines without delimiters (field mode).
func cut(ctx *Context) error {
	spec, err := parseCutArgs(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	return runKernel(ctx, spec.kernel(), spec.operands)
}

func newCutKernel(args []string) (Kernel, bool) {
	spec, err := parseCutArgs(args)
	if err != nil || !stdinOnly(spec.operands) {
		return nil, false
	}
	return spec.kernel(), true
}

// kernel is cut's per-line body: character mode copies the selected
// ranges; field mode finds the boundaries in one allocation-free scan
// that stops at the last field the list can ask for.
func (spec *cutSpec) kernel() *lineKernel {
	ranges, delim, suppress, charMode := spec.ranges, spec.delim, spec.suppress, spec.charMode
	lastField := 1 // highest field a bounded list names; -1: open-ended
	for _, r := range ranges {
		if r.hi < 0 || lastField < 0 {
			lastField = -1
		} else if r.hi > lastField {
			lastField = r.hi
		}
	}

	var fields [][2]int // reusable per-line field boundaries
	k := &lineKernel{}
	k.perLine = func(out, line []byte) []byte {
		if charMode {
			for _, r := range ranges {
				lo, hi := r.lo, r.hi
				if lo < 1 {
					lo = 1
				}
				if hi < 0 || hi > len(line) {
					hi = len(line)
				}
				if lo <= hi {
					out = append(out, line[lo-1:hi]...)
				}
			}
			return append(out, '\n')
		}
		fields = fields[:0]
		for start := 0; len(fields) != lastField; {
			i := bytes.IndexByte(line[start:], delim)
			if i < 0 {
				if start == 0 { // no delimiter at all
					if suppress {
						return out
					}
					out = append(out, line...)
					return append(out, '\n')
				}
				fields = append(fields, [2]int{start, len(line)})
				break
			}
			fields = append(fields, [2]int{start, start + i})
			start += i + 1
		}
		first := true
		for _, r := range ranges {
			lo, hi := r.lo, r.hi
			if lo < 1 {
				lo = 1
			}
			if hi < 0 || hi > len(fields) {
				hi = len(fields)
			}
			if lo > hi {
				continue
			}
			// Fields lo..hi are contiguous in the line with their
			// delimiters already between them: one copy per range.
			if !first {
				out = append(out, delim)
			}
			out = append(out, line[fields[lo-1][0]:fields[hi-1][1]]...)
			first = false
		}
		return append(out, '\n')
	}
	return k
}

type cutRange struct {
	lo, hi int // 1-based inclusive; hi=-1 means open
}

func parseCutList(spec string) ([]cutRange, error) {
	var out []cutRange
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, strconv.ErrSyntax
		}
		if dash := strings.IndexByte(part, '-'); dash >= 0 {
			lo, hi := 1, -1
			var err error
			if dash > 0 {
				lo, err = strconv.Atoi(part[:dash])
				if err != nil {
					return nil, err
				}
			}
			if dash < len(part)-1 {
				hi, err = strconv.Atoi(part[dash+1:])
				if err != nil {
					return nil, err
				}
			}
			out = append(out, cutRange{lo: lo, hi: hi})
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, cutRange{lo: n, hi: n})
	}
	return out, nil
}
