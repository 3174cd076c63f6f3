package commands

import "strings"

func init() {
	register("tac", tac)
	register("rev", rev)
}

// plainOperands is the argv grammar of the flagless commands: every
// argument is an input, and anything dash-led other than "-" is refused.
func plainOperands(ctx *Context) ([]string, error) {
	for _, a := range ctx.Args {
		if a != "-" && strings.HasPrefix(a, "-") {
			return nil, ctx.Errorf("unsupported flag %q", a)
		}
	}
	return ctx.Args, nil
}

// tac prints input lines in reverse order. It must block on its whole
// input — the canonical "pure but not streaming" command.
func tac(ctx *Context) error {
	operands, err := plainOperands(ctx)
	if err != nil {
		return err
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	// GNU tac reverses each file independently, in argument order.
	for _, r := range readers {
		lines, err := ReadAllLines(r)
		if err != nil {
			return err
		}
		for i := len(lines) - 1; i >= 0; i-- {
			if err := lw.WriteLine(lines[i]); err != nil {
				return err
			}
		}
	}
	return lw.Flush()
}

// rev reverses the characters of each line.
func rev(ctx *Context) error {
	operands, err := plainOperands(ctx)
	if err != nil {
		return err
	}
	return runKernel(ctx, revKernel(), operands)
}

func newRevKernel(args []string) (Kernel, bool) {
	if !stdinOnly(args) {
		return nil, false
	}
	return revKernel(), true
}

func revKernel() *lineKernel {
	return &lineKernel{perLine: func(out, line []byte) []byte {
		for i := len(line) - 1; i >= 0; i-- {
			out = append(out, line[i])
		}
		return append(out, '\n')
	}}
}
