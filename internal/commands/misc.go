package commands

import (
	"strconv"
	"strings"
)

func init() {
	register("echo", echo)
	register("seq", seq)
	register("true", trueCmd)
	register(":", trueCmd)
	register("false", falseCmd)
	register("test", testCmd)
	register("[", bracketCmd)
	register("iconv", iconv)
}

// echo prints its arguments separated by spaces; -n suppresses the
// trailing newline.
func echo(ctx *Context) error {
	args := ctx.Args
	newline := true
	if len(args) > 0 && args[0] == "-n" {
		newline = false
		args = args[1:]
	}
	out := strings.Join(args, " ")
	if newline {
		out += "\n"
	}
	_, err := ctx.Stdout.Write([]byte(out))
	return err
}

// seq prints a number sequence: seq LAST | seq FIRST LAST | seq FIRST
// INCR LAST.
func seq(ctx *Context) error {
	var nums []int64
	for _, a := range ctx.Args {
		n, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return ctx.Errorf("invalid number %q", a)
		}
		nums = append(nums, n)
	}
	first, incr, last := int64(1), int64(1), int64(0)
	switch len(nums) {
	case 1:
		last = nums[0]
	case 2:
		first, last = nums[0], nums[1]
	case 3:
		first, incr, last = nums[0], nums[1], nums[2]
	default:
		return ctx.Errorf("expected 1-3 numeric arguments")
	}
	if incr == 0 {
		return ctx.Errorf("increment must not be zero")
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	if incr > 0 {
		for v := first; v <= last; v += incr {
			if err := lw.WriteString(strconv.FormatInt(v, 10) + "\n"); err != nil {
				return err
			}
		}
	} else {
		for v := first; v >= last; v += incr {
			if err := lw.WriteString(strconv.FormatInt(v, 10) + "\n"); err != nil {
				return err
			}
		}
	}
	return lw.Flush()
}

func trueCmd(*Context) error  { return nil }
func falseCmd(*Context) error { return &ExitError{Code: 1} }

// testCmd implements the test/[ predicates the interpreter needs:
// -z/-n STRING, STRING = STRING, STRING != STRING, INT -eq/-ne/-lt/-le/
// -gt/-ge INT, and bare non-empty string.
func testCmd(ctx *Context) error {
	return evalTest(ctx, ctx.Args)
}

func bracketCmd(ctx *Context) error {
	args := ctx.Args
	if len(args) == 0 || args[len(args)-1] != "]" {
		return ctx.Errorf("missing closing ]")
	}
	return evalTest(ctx, args[:len(args)-1])
}

func evalTest(ctx *Context, args []string) error {
	fail := &ExitError{Code: 1}
	switch len(args) {
	case 0:
		return fail
	case 1:
		if args[0] == "" {
			return fail
		}
		return nil
	case 2:
		switch args[0] {
		case "-z":
			if args[1] == "" {
				return nil
			}
			return fail
		case "-n":
			if args[1] != "" {
				return nil
			}
			return fail
		case "!":
			if err := evalTest(ctx, args[1:]); err != nil {
				return nil
			}
			return fail
		}
		return ctx.Errorf("unsupported test %v", args)
	case 3:
		a, op, b := args[0], args[1], args[2]
		switch op {
		case "=", "==":
			if a == b {
				return nil
			}
			return fail
		case "!=":
			if a != b {
				return nil
			}
			return fail
		case "-eq", "-ne", "-lt", "-le", "-gt", "-ge":
			x, err1 := strconv.ParseInt(a, 10, 64)
			y, err2 := strconv.ParseInt(b, 10, 64)
			if err1 != nil || err2 != nil {
				return ctx.Errorf("integer expected: %q %q", a, b)
			}
			ok := false
			switch op {
			case "-eq":
				ok = x == y
			case "-ne":
				ok = x != y
			case "-lt":
				ok = x < y
			case "-le":
				ok = x <= y
			case "-gt":
				ok = x > y
			case "-ge":
				ok = x >= y
			}
			if ok {
				return nil
			}
			return fail
		}
		return ctx.Errorf("unsupported test %v", args)
	}
	return ctx.Errorf("unsupported test %v", args)
}

// iconv converts between character encodings. ASCII/UTF-8 passthrough
// plus //TRANSLIT stripping of non-ASCII bytes is all the pipelines use.
func iconv(ctx *Context) error {
	from, to := "utf-8", "utf-8"
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
		case strings.HasPrefix(a, "-f"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			from = strings.ToLower(v)
		case strings.HasPrefix(a, "-t"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			to = strings.ToLower(v)
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
			return ctx.Errorf("unsupported flag %q", a)
		default:
			operands = append(operands, a)
		}
	}
	_ = from
	stripNonASCII := strings.HasPrefix(to, "ascii")
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	var out []byte
	err = EachLineReaders(readers, func(line []byte) error {
		if !stripNonASCII {
			return lw.WriteLine(line)
		}
		out = out[:0]
		for _, c := range line {
			if c < 0x80 {
				out = append(out, c)
			}
		}
		return lw.WriteLine(out)
	})
	if err != nil {
		return err
	}
	return lw.Flush()
}
