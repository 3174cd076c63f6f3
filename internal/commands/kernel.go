package commands

import (
	"bytes"
	"io"
)

// This file defines the kernel layer: the per-block form of the hot
// stateless commands, and the one driver that runs it. A kernel is not a
// second implementation of its command — it is the command. tr, cut and
// rev are argv-parse + runKernel; sed and grep run runKernel for every
// invocation their kernel accepts, and keep a per-line loop of their own
// only for the position-dependent flags (sed: numeric addresses, p d q =
// and -n; grep: -n -c -m -q -l -o -H), around the same per-line body the
// kernel wraps. Each kernel lives next to its command's argv parser.
//
// What a kernel scans, per block and per line: tr has no lines, it maps
// the block in one pass. lineKernel finds every newline of the block and
// runs the command's per-line body on each line (cut, rev, and every
// grep and sed the next form does not take). literalKernel — grep and sed
// with one fixed string to look for — searches the block for the string
// and runs the per-line body only on the lines that hold it; the lines
// between two hits are copied or dropped as one run of bytes, never
// visited on their own. The aim is a cost per byte, not per line: tr and
// the literal form look at each input byte once, in a word-wide scan.
//
// What fusion adds is only the composition: a chain like tr | grep | cut
// normally costs one goroutine and one chunk pipe per stage; the runtime's
// StageChain instead runs the chain's kernels back to back over pooled
// blocks in a single goroutine, with zero intermediate pipes.

// Kernel is a composable streaming transform: the per-block form of a
// stateless command.
//
// Apply appends the transform of one input block to out and returns the
// grown slice; it never takes ownership of in. Blocks arrive in stream
// order but need not be newline-aligned — kernels that operate on lines
// carry partial lines across calls internally. Finish appends any
// end-of-stream output (final-line fixups, carried partial lines) and
// resets the kernel to its initial state, so one kernel value can
// process a sequence of independent streams: the framed round-robin
// protocol runs one stream per chunk. Status reports the exit status
// accumulated across every stream processed since the kernel was built
// (grep's no-match is an *ExitError); nil means 0.
type Kernel interface {
	Apply(out, in []byte) []byte
	Finish(out []byte) []byte
	Status() error
}

// kernelMakers maps command names to kernel constructors. A constructor
// returns false when this particular flag combination has no kernel
// form (the command then runs unfused).
var kernelMakers = map[string]func(args []string) (Kernel, bool){
	"cat":  newCatKernel,
	"tr":   newTrKernel,
	"grep": newGrepKernel,
	"cut":  newCutKernel,
	"sed":  newSedKernel,
	"rev":  newRevKernel,
}

// NewKernel builds the kernel for a command invocation, or reports
// false when the command (or this flag combination) has no kernel form.
// Kernel-capable invocations read standard input and write standard
// output only — file operands disqualify them.
func NewKernel(name string, args []string) (Kernel, bool) {
	mk, ok := kernelMakers[name]
	if !ok {
		return nil, false
	}
	return mk(args)
}

// KernelCapable reports whether the invocation can run as a fused
// kernel. The planner consults it when deciding which chains to
// collapse (dfg.Options.KernelCapable).
func KernelCapable(name string, args []string) bool {
	_, ok := NewKernel(name, args)
	return ok
}

// runKernel is the data loop of every kernel-capable command: it opens
// the operands (standard input when there are none), pushes each reader's
// blocks through k and hands the output blocks on by ownership transfer.
// Finish runs at every reader's end, not only the last: an unterminated
// final line of one file ends before the next file starts, exactly as if
// the command had run once per file and the outputs were concatenated.
// The result is the kernel's accumulated status.
func runKernel(ctx *Context, k Kernel, operands []string) error {
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	emit := func(out []byte) error {
		if len(out) == 0 {
			PutBlock(out)
			return nil
		}
		return writeBlock(ctx.Stdout, out)
	}
	for _, r := range readers {
		for {
			b, release, err := NextBlock(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			out := k.Apply(GetBlock(), b)
			release()
			if err := emit(out); err != nil {
				return err
			}
		}
		if err := emit(k.Finish(GetBlock())); err != nil {
			return err
		}
	}
	return k.Status()
}

// stdinOnly reports whether operands name standard input exclusively
// ("-" or nothing).
func stdinOnly(operands []string) bool {
	for _, op := range operands {
		if op != "-" {
			return false
		}
	}
	return true
}

// lineSplitter carries partial lines across arbitrarily-chunked Apply
// calls, handing each complete line (newline stripped) to a callback.
// The final unterminated line surfaces at finish time, mirroring the
// blockScanner behaviour the command implementations share.
type lineSplitter struct {
	carry []byte
}

func (ls *lineSplitter) feed(in []byte, fn func(line []byte)) {
	in = ls.feedCarried(in, fn)
	for len(in) > 0 {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			ls.carry = append(ls.carry, in...)
			return
		}
		fn(in[:i])
		in = in[i+1:]
	}
}

// feedCarried completes the carried partial line, if there is one, from
// the front of in, hands it to fn and returns what follows it: in from a
// line start on (nothing, when the line did not end in this block).
func (ls *lineSplitter) feedCarried(in []byte, fn func(line []byte)) []byte {
	if len(ls.carry) == 0 {
		return in
	}
	i := bytes.IndexByte(in, '\n')
	if i < 0 {
		ls.carry = append(ls.carry, in...)
		return nil
	}
	ls.carry = append(ls.carry, in[:i]...)
	fn(ls.carry)
	ls.carry = ls.carry[:0]
	return in[i+1:]
}

func (ls *lineSplitter) finish(fn func(line []byte)) {
	if len(ls.carry) > 0 {
		fn(ls.carry)
		ls.carry = ls.carry[:0]
	}
}

// lineKernel adapts a per-line append function into a Kernel. perLine
// appends the command's output for one input line (including any
// trailing newline) to out; it must not retain line.
type lineKernel struct {
	ls      lineSplitter
	perLine func(out, line []byte) []byte
	status  func() error
}

func (k *lineKernel) Apply(out, in []byte) []byte {
	k.ls.feed(in, func(line []byte) { out = k.perLine(out, line) })
	return out
}

func (k *lineKernel) Finish(out []byte) []byte {
	k.ls.finish(func(line []byte) { out = k.perLine(out, line) })
	return out
}

func (k *lineKernel) Status() error {
	if k.status == nil {
		return nil
	}
	return k.status()
}

// literalKernel is the block form of a per-line command that only has
// work to do on the lines containing one fixed string (needle: not empty,
// no newline). Apply searches the block, not each line, for needle and
// widens a hit to its line, which goes through hit; the run of whole
// lines between two hits goes through rest in one piece. Either may be
// nil: nothing is printed. Partial lines are lineKernel's business: the
// carried line is completed and run through perLine, the body that is
// right for any line, before the block scan resumes — so hit and rest
// must print what perLine would have.
type literalKernel struct {
	lineKernel
	needle []byte
	hit    func(out, line []byte) []byte
	rest   func(out, lines []byte) []byte
}

func (k *literalKernel) Apply(out, in []byte) []byte {
	in = k.ls.feedCarried(in, func(line []byte) { out = k.perLine(out, line) })
	// No hit can straddle the end of the last whole line: needle has no
	// newline in it. The unterminated tail waits for its rest.
	end := bytes.LastIndexByte(in, '\n') + 1
	k.ls.carry = append(k.ls.carry, in[end:]...)
	in = in[:end]
	for len(in) > 0 {
		at := bytes.Index(in, k.needle)
		if at < 0 {
			break
		}
		start := bytes.LastIndexByte(in[:at], '\n') + 1
		stop := at + bytes.IndexByte(in[at:], '\n')
		if k.rest != nil && start > 0 {
			out = k.rest(out, in[:start])
		}
		if k.hit != nil {
			out = k.hit(out, in[start:stop])
		}
		in = in[stop+1:]
	}
	if k.rest != nil && len(in) > 0 {
		out = k.rest(out, in)
	}
	return out
}

// identityKernel is cat with no flags: a pass-through. The fused
// executor special-cases it to skip the copy entirely.
type identityKernel struct{}

func (identityKernel) Apply(out, in []byte) []byte { return append(out, in...) }
func (identityKernel) Finish(out []byte) []byte    { return out }
func (identityKernel) Status() error               { return nil }

// IsPassThrough marks the kernel as a no-op for the fused executor,
// which then routes blocks past it without the copy Apply would make.
func (identityKernel) IsPassThrough() {}

func newCatKernel(args []string) (Kernel, bool) {
	for _, a := range args {
		if a != "-" {
			return nil, false
		}
	}
	return identityKernel{}, true
}

// Compile-time interface checks.
var (
	_ Kernel = (*trKernel)(nil)
	_ Kernel = (*lineKernel)(nil)
	_ Kernel = (*literalKernel)(nil)
	_ Kernel = identityKernel{}
)
