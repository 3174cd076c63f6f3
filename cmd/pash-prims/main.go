// Command pash-prims runs PaSh's runtime primitives for generated scripts
// (§5.2). It is an argv shim over the code the in-process runtime runs:
// emitted scripts invoke it as "$PASH_PRIMS" <subcommand>.
//
//	pash-prims split IN OUT1 OUT2...  # runtime.GeneralSplit, the barrier split; IN "-" is stdin
//	pash-prims eager < IN > OUT       # runtime.Eager, the unbounded eager pipe
//	pash-prims agg-NAME ARGS...       # the aggregator agg.Install registers as pash-agg-NAME
//
// split opens its outputs in partition order, each as the split reaches
// it, so an empty partition still opens and closes its FIFO; a reader that
// hangs up loses the rest of its partition, as in-process.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"

	"repro/internal/agg"
	"repro/internal/commands"
	"repro/internal/runtime"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "pash-prims: missing subcommand")
		os.Exit(2)
	}
	sub, args := os.Args[1], os.Args[2:]
	var err error
	switch sub {
	case "split":
		err = split(args)
	case "eager":
		err = runtime.Eager(os.Stdout, os.Stdin)
	default:
		reg := commands.NewRegistry()
		agg.Install(reg)
		err = reg.Run("pash-"+sub, &commands.Context{
			Args:   args,
			Stdin:  os.Stdin,
			Stdout: os.Stdout,
			Stderr: os.Stderr,
			FS:     commands.OSFS{},
		})
	}
	if err != nil {
		code := commands.ExitCode(err)
		if code == 0 {
			code = 1
		}
		fmt.Fprintf(os.Stderr, "pash-prims %s: %v\n", sub, err)
		os.Exit(code)
	}
}

// split binds runtime.GeneralSplit to its argv: IN (or stdin for "-") and
// one output file per partition.
func split(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: split IN OUT...")
	}
	in := os.Stdin
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	outs := make([]io.WriteCloser, len(args)-1)
	for i, name := range args[1:] {
		outs[i] = &output{name: name}
	}
	return runtime.GeneralSplit(in, outs)
}

// output opens its file (a FIFO, in an emitted script) on first use, and
// reports a reader that hung up as the runtime's ErrDownstreamClosed.
type output struct {
	name string
	f    *os.File
}

func (o *output) open() (err error) {
	if o.f == nil {
		o.f, err = os.OpenFile(o.name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	return err
}

func (o *output) Write(b []byte) (int, error) {
	if err := o.open(); err != nil {
		return 0, err
	}
	n, err := o.f.Write(b)
	if errors.Is(err, syscall.EPIPE) {
		err = runtime.ErrDownstreamClosed
	}
	return n, err
}

func (o *output) Close() error {
	if err := o.open(); err != nil {
		return err
	}
	return o.f.Close()
}
