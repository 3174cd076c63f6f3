package commands

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/annot"
)

func init() { register("xargs", xargs) }

// InputIsIndex reports whether the named builtin reads its input lines as
// names of other things to read or run: xargs runs a command per batch,
// file opens each path. The bytes such a command reads say nothing about
// the work it does, so the planner does not size a region by them.
func InputIsIndex(name string) bool { return name == "xargs" || name == "file" }

// xargsArgs is a parsed xargs argv.
type xargsArgs struct {
	maxArgs  int      // -n: words per invocation (0 = up to 1024)
	maxLines int      // -L: lines per invocation
	repl     string   // -I: one line per invocation, substituted for repl
	template []string // the command and its leading arguments
}

// parseXargs reads xargs's options, which end at the first operand (the
// command to run).
func parseXargs(args []string) (xargsArgs, error) {
	var x xargsArgs
	i := 0
	for ; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") || a == "-" {
			break
		}
		val := a[min(2, len(a)):]
		if val == "" && (a == "-n" || a == "-L" || a == "-I") {
			if i++; i >= len(args) {
				return x, fmt.Errorf("option %q requires an argument", a)
			}
			val = args[i]
		}
		switch {
		case strings.HasPrefix(a, "-n"), strings.HasPrefix(a, "-L"):
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return x, fmt.Errorf("invalid %s value %q", a[:2], val)
			}
			if a[1] == 'n' {
				x.maxArgs = n
			} else {
				x.maxLines = n
			}
		case strings.HasPrefix(a, "-I"):
			x.repl = val
		case a == "-s" || a == "-P":
			i++ // accept and ignore with argument
		default:
			return x, fmt.Errorf("unsupported flag %q", a)
		}
	}
	x.template = args[i:]
	if len(x.template) == 0 {
		x.template = []string{"echo"}
	}
	return x, nil
}

// refineXargs demotes xargs to NonParallelizable unless it runs its
// command once per input item that never spans lines — one word (-n 1)
// or one line (-L 1, -I) — so that its output over line-aligned chunks
// is the concatenation of their outputs. Any larger batch, the default
// one included, groups items across line boundaries; an argv xargs
// refuses is not a map either.
func refineXargs(inv *annot.Invocation) {
	if inv.Class != annot.Stateless {
		return
	}
	x, err := parseXargs(inv.Opts.Raw)
	if err != nil || x.repl == "" && x.maxLines != 1 && (x.maxLines > 0 || x.maxArgs != 1) {
		inv.Class = annot.NonParallelizable
	}
}

// xargs builds command invocations from input lines. Flags: -n MAX (args
// per invocation), -L MAX (lines per invocation), -I REPL (replace REPL
// in the template with each input line, one line per invocation).
// Input items are whitespace-separated words (newline-separated whole
// lines for -I/-L).
func xargs(ctx *Context) error {
	x, err := parseXargs(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	if ctx.Exec == nil {
		return ctx.Errorf("no exec hook available")
	}

	runOnce := func(argv []string) error {
		name := x.template[0]
		var callArgs []string
		if x.repl != "" {
			for _, t := range x.template[1:] {
				callArgs = append(callArgs, strings.ReplaceAll(t, x.repl, argv[0]))
			}
		} else {
			callArgs = append(callArgs, x.template[1:]...)
			callArgs = append(callArgs, argv...)
		}
		err := ctx.Exec(name, callArgs, strings.NewReader(""), ctx.Stdout)
		if code := ExitCode(err); code == 126 || code == 127 {
			return err // a command that cannot be run stops xargs with its status, as in GNU xargs
		}
		if _, ok := err.(*ExitError); ok {
			return nil // any other non-zero child status does not stop xargs
		}
		return err
	}

	if x.repl != "" || x.maxLines > 0 {
		// Line mode.
		batch := make([]string, 0, 16)
		limit := x.maxLines
		if x.repl != "" {
			limit = 1
		}
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := runOnce(batch)
			batch = batch[:0]
			return err
		}
		err := EachLine(ctx.stdin(), func(line []byte) error {
			if len(line) == 0 {
				return nil
			}
			batch = append(batch, string(line))
			if len(batch) >= limit {
				return flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		return flush()
	}

	// Word mode.
	var batch []string
	limit := x.maxArgs
	if limit == 0 {
		limit = 1024
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := runOnce(batch)
		batch = nil
		return err
	}
	err = EachLine(ctx.stdin(), func(line []byte) error {
		for _, w := range strings.Fields(string(line)) {
			batch = append(batch, w)
			if len(batch) >= limit {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
