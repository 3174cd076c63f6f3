package commands

import (
	"strconv"
	"strings"

	"repro/internal/annot"
)

func init() {
	register("fold", fold)
	register("paste", paste)
	register("nl", nl)
}

// fold wraps lines to a width (-w, default 80); -s breaks at blanks.
func fold(ctx *Context) error {
	width := 80
	breakAtBlanks := false
	var operands []string
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case strings.HasPrefix(a, "-w"):
			v := a[2:]
			if v == "" {
				i++
				if i >= len(args) {
					return ctx.Errorf("-w requires an argument")
				}
				v = args[i]
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ctx.Errorf("invalid width %q", v)
			}
			width = n
		case a == "-s":
			breakAtBlanks = true
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
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
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	err = EachLineReaders(readers, func(line []byte) error {
		for len(line) > width {
			cut := width
			if breakAtBlanks {
				for j := width - 1; j > 0; j-- {
					if line[j] == ' ' || line[j] == '\t' {
						cut = j + 1
						break
					}
				}
			}
			if err := lw.WriteLine(line[:cut]); err != nil {
				return err
			}
			line = line[cut:]
		}
		return lw.WriteLine(line)
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}

// refinePaste demotes multi-input paste from stateless to pure:
// interleaving several streams consumes them in lockstep, which is not a
// per-line map over one concatenated input.
func refinePaste(inv *annot.Invocation) {
	if inv.Class == annot.Stateless && len(inv.Opts.Operands) > 1 {
		inv.Class = annot.Pure
	}
}

// paste merges corresponding lines of its inputs with a delimiter
// (-d, default TAB); -s serializes each file onto one line instead.
func paste(ctx *Context) error {
	delims := []byte{'\t'}
	serial := false
	var operands []string
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case strings.HasPrefix(a, "-d"):
			v := a[2:]
			if v == "" {
				i++
				if i >= len(args) {
					return ctx.Errorf("-d requires an argument")
				}
				v = args[i]
			}
			delims = []byte(unescapePasteDelims(v))
		case a == "-s":
			serial = true
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
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
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	delimAt := func(i int) byte { return delims[i%len(delims)] }

	if serial {
		for _, r := range readers {
			var out []byte
			first := true
			err := EachLine(r, func(line []byte) error {
				if !first {
					out = append(out, delimAt(0))
				}
				out = append(out, line...)
				first = false
				return nil
			})
			if err != nil {
				return err
			}
			if err := lw.WriteLine(out); err != nil {
				return err
			}
		}
		return lw.Flush()
	}

	// A repeated "-" reads stdin alternately, as GNU paste does: one
	// iterator serves every occurrence.
	iters := make([]*LineIter, len(readers))
	var stdinIt *LineIter
	for i, r := range readers {
		if i < len(operands) && operands[i] == "-" {
			if stdinIt == nil {
				stdinIt = NewLineIter(r)
			}
			iters[i] = stdinIt
			continue
		}
		iters[i] = NewLineIter(r)
	}
	for {
		var out []byte
		any := false
		for i, it := range iters {
			line, ok := it.Next()
			if ok {
				any = true
				out = append(out, line...)
			}
			if i < len(iters)-1 {
				out = append(out, delimAt(i))
			}
		}
		if !any {
			break
		}
		if err := lw.WriteLine(out); err != nil {
			return err
		}
	}
	for _, it := range iters {
		if err := it.Err(); err != nil {
			return err
		}
	}
	return lw.Flush()
}

func unescapePasteDelims(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '0':
				// Empty delimiter: GNU uses \0 for "no delimiter"; encode
				// as nothing by skipping (approximation: use \x00 then
				// strip) — we simply skip both characters.
			case '\\':
				sb.WriteByte('\\')
			default:
				sb.WriteByte(s[i+1])
			}
			i++
			continue
		}
		sb.WriteByte(s[i])
	}
	if sb.Len() == 0 {
		return "\t"
	}
	return sb.String()
}

// nl numbers lines. Flags: -ba (number all), -bt (non-empty, default),
// -s SEP (separator, default TAB), -w N (width, default 6).
func nl(ctx *Context) error {
	numberAll := false
	sep := "\t"
	width := 6
	var operands []string
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		grab := func(attached string) (string, error) {
			if attached != "" {
				return attached, nil
			}
			i++
			if i >= len(args) {
				return "", ctx.Errorf("option %q requires an argument", a)
			}
			return args[i], nil
		}
		switch {
		case strings.HasPrefix(a, "-b"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			switch v {
			case "a":
				numberAll = true
			case "t":
				numberAll = false
			default:
				return ctx.Errorf("unsupported -b style %q", v)
			}
		case strings.HasPrefix(a, "-s"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			sep = v
		case strings.HasPrefix(a, "-w"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ctx.Errorf("invalid width %q", v)
			}
			width = n
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
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
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	n := 0
	err = EachLineReaders(readers, func(line []byte) error {
		if len(line) == 0 && !numberAll {
			return lw.WriteLine(line)
		}
		n++
		num := strconv.Itoa(n)
		pad := width - len(num)
		var out []byte
		for i := 0; i < pad; i++ {
			out = append(out, ' ')
		}
		out = append(out, num...)
		out = append(out, sep...)
		out = append(out, line...)
		return lw.WriteLine(out)
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}
