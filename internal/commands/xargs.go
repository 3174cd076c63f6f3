package commands

import (
	"strconv"
	"strings"
)

func init() { register("xargs", xargs) }

// InputIsIndex reports whether the named builtin reads its input lines as
// names of other things to read or run: xargs runs a command per batch,
// file opens each path. The bytes such a command reads say nothing about
// the work it does, so the planner does not size a region by them.
func InputIsIndex(name string) bool { return name == "xargs" || name == "file" }

// xargs builds command invocations from input lines. Flags: -n MAX (args
// per invocation), -L MAX (lines per invocation), -I REPL (replace REPL
// in the template with each input line, one line per invocation).
// Input items are whitespace-separated words (newline-separated whole
// lines for -I/-L).
func xargs(ctx *Context) error {
	maxArgs := 0
	maxLines := 0
	replStr := ""
	var template []string
	args := ctx.Args
	i := 0
	for ; i < len(args); i++ {
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
		if !strings.HasPrefix(a, "-") || a == "-" {
			break
		}
		switch {
		case strings.HasPrefix(a, "-n"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ctx.Errorf("invalid -n value %q", v)
			}
			maxArgs = n
		case strings.HasPrefix(a, "-L"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ctx.Errorf("invalid -L value %q", v)
			}
			maxLines = n
		case strings.HasPrefix(a, "-I"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			replStr = v
		case a == "-s" || a == "-P":
			i++ // accept and ignore with argument
		default:
			return ctx.Errorf("unsupported flag %q", a)
		}
	}
	template = args[i:]
	if len(template) == 0 {
		template = []string{"echo"}
	}
	if ctx.Exec == nil {
		return ctx.Errorf("no exec hook available")
	}

	runOnce := func(argv []string) error {
		name := template[0]
		var callArgs []string
		if replStr != "" {
			for _, t := range template[1:] {
				callArgs = append(callArgs, strings.ReplaceAll(t, replStr, argv[0]))
			}
		} else {
			callArgs = append(callArgs, template[1:]...)
			callArgs = append(callArgs, argv...)
		}
		err := ctx.Exec(name, callArgs, strings.NewReader(""), ctx.Stdout)
		if err != nil {
			if _, ok := err.(*ExitError); ok {
				return nil // non-zero child status does not stop xargs
			}
			return err
		}
		return nil
	}

	if replStr != "" || maxLines > 0 {
		// Line mode.
		batch := make([]string, 0, 16)
		limit := maxLines
		if replStr != "" {
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
	limit := maxArgs
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
	err := EachLine(ctx.stdin(), func(line []byte) error {
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
