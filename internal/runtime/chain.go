package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// StageChain is the one runner of a linear chain of (name, args) stages,
// each reading the previous stage's standard output: a KindFused node's
// collapsed commands, a framed replica's single command, a remote spec's
// shipped chain on a worker or on the coordinator's local rung. It runs
// the chain over a whole stream (Stream) or once per input chunk
// (PerChunk), through composed kernels — commands.KernelChain, the one
// kernel loop: one goroutine, zero intermediate pipes — when every stage
// has one, and through the registry's command implementations otherwise.
// The two forms produce the same bytes and the same status
// (TestStageChainEquivalence).
type StageChain struct {
	reg    *commands.Registry
	stages []dfg.FusedStage
	fs     commands.FS
	env    map[string]string
	stderr io.Writer
	// kpool recycles kernel sets across chunks and requests; nil selects
	// the command implementations (a stage without a kernel, or
	// Config.DisableFusion). Finish resets a kernel's stream state, so a
	// set that completed cleanly is as good as new; error paths drop the
	// set instead of returning it. Bind copies share the pool, so a chain
	// template cached by the dist worker amortizes kernel construction
	// across requests.
	kpool *sync.Pool
	// meters, when set (one per stage), accumulate the time spent inside
	// each stage's kernel and the bytes that crossed it — what the pipes
	// between the stages metered before fusion removed them. Only the
	// kernel form charges them, and only one goroutine may run a metered
	// chain at a time.
	meters []commands.StageTime
}

// NewStageChain validates the stages against the registry and prepares a
// runner for them. Commands open files through fs — the caller's, so a
// sandboxed job's chain is jailed wherever it runs.
func NewStageChain(reg *commands.Registry, stages []dfg.FusedStage, fs commands.FS, env map[string]string, stderr io.Writer) (*StageChain, error) {
	if len(stages) == 0 {
		return nil, errors.New("runtime: stage chain is empty")
	}
	if stderr == nil {
		stderr = io.Discard
	}
	c := &StageChain{reg: reg, stages: stages, fs: fs, env: env, stderr: stderr, kpool: &sync.Pool{}}
	for _, st := range stages {
		if _, ok := reg.Lookup(st.Name); !ok {
			return nil, fmt.Errorf("runtime: stage chain: unknown command %q", st.Name)
		}
		if !reg.KernelCapable(st.Name, st.Args) {
			c.kpool = nil
		}
	}
	return c, nil
}

// Bind returns a copy of the chain running under fs and env, sharing the
// validated stages and the kernel pool. The dist worker's plan cache
// stores one template per plan and binds each request's filesystem (its
// sandbox bit) and environment through this.
func (c *StageChain) Bind(fs commands.FS, env map[string]string) *StageChain {
	cp := *c
	cp.fs, cp.env = fs, env
	return &cp
}

// kernels returns a kernel set for the chain — pooled when one is
// available, freshly built through the execution registry otherwise, so
// externally-registered kernels and user shadowing of builtin names
// resolve as the planner's capability check did — or nil when the chain
// runs as commands. A fresh set goes through commands.Compose before its
// first use, so every set of the pool is composed.
func (c *StageChain) kernels() []commands.Kernel {
	if c.kpool == nil {
		return nil
	}
	if v := c.kpool.Get(); v != nil {
		return v.([]commands.Kernel)
	}
	ks := make([]commands.Kernel, len(c.stages))
	for i, st := range c.stages {
		k, ok := c.reg.NewKernel(st.Name, st.Args)
		if !ok {
			return nil
		}
		ks[i] = k
	}
	commands.Compose(ks)
	return ks
}

// context builds one stage's command invocation.
func (c *StageChain) context(st dfg.FusedStage, stdin io.Reader, stdout io.Writer) *commands.Context {
	return &commands.Context{Args: st.Args, Stdin: stdin, Stdout: stdout, Stderr: c.stderr, FS: c.fs, Env: c.env}
}

// exitStatus splits a stage's result into the chain's status and a real
// failure: a plain non-zero exit (grep finding nothing) is a status.
func exitStatus(err error) (int, error) {
	var ee *commands.ExitError
	if err == nil || errors.As(err, &ee) {
		return commands.ExitCode(err), nil
	}
	return 1, err
}

// applyChunk runs the whole chain, with the kernel set in hand (nil:
// commands), over one chunk as an independent stream, returning the
// output block the caller owns. A chunk's exit status is not the
// stream's (grep finding nothing in this chunk is normal) and is
// dropped. It gives the chunk's block back by calling release exactly
// once, as soon as no stage reads the input any more, unless the block
// itself is the output (kernels that all pass it through).
func (c *StageChain) applyChunk(ks []commands.Kernel, chunk []byte, release func()) ([]byte, error) {
	if ks != nil {
		return commands.KernelChain{Kernels: ks, Meters: c.meters}.Chunk(chunk, release), nil
	}
	cur := chunk
	for _, st := range c.stages {
		col := &chunkCollector{buf: commands.GetBlock()}
		_, err := exitStatus(c.reg.Run(st.Name, c.context(st, bytes.NewReader(cur), col)))
		if release != nil {
			release()
			release = nil
		} else {
			commands.PutBlock(cur)
		}
		if err != nil {
			commands.PutBlock(col.buf)
			return nil, err
		}
		cur = col.buf
	}
	return cur, nil
}

// PerChunk runs the chain under the round-robin frame discipline: once
// per input chunk (sound for stateless stages — the per-chunk
// independence that justified splitting them), emitting exactly one
// output chunk per input chunk, empty ones included, so a downstream
// merge can restore the original order by rotation. One kernel set serves
// the whole loop: a set taken from the pool per chunk would be rebuilt
// whenever the goroutine had changed processors in between.
func (c *StageChain) PerChunk(ctx context.Context, cr commands.ChunkReader, cw commands.ChunkWriter) error {
	ks := c.kernels()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, release, err := cr.ReadChunk()
		if err == io.EOF {
			if ks != nil {
				c.kpool.Put(ks)
			}
			return nil
		}
		if err != nil {
			return err
		}
		out, err := c.applyChunk(ks, b, release)
		if err != nil {
			return err
		}
		if err := cw.WriteChunk(out); err != nil {
			return err
		}
	}
}

// Stream runs the chain over a whole byte stream — the kernel loop, or
// one goroutine per stage joined by internal pipes, exactly what the
// stages were before fusion — and returns the last stage's exit status
// (shell pipeline semantics within the chain). Transport and usage
// failures, and the consumer of w hanging up, are errors.
func (c *StageChain) Stream(r io.Reader, w io.Writer) (int, error) {
	if ks := c.kernels(); ks != nil {
		err := commands.KernelChain{Kernels: ks, Meters: c.meters}.Stream(r, w)
		if err == nil {
			err = ks[len(ks)-1].Status()
		}
		if err == nil {
			// A kernel's status accumulates over its lifetime, so only a
			// set that ended with status 0 is as good as new.
			c.kpool.Put(ks)
		}
		return exitStatus(err)
	}
	last := len(c.stages) - 1
	links := make([]*edgeStream, last) // links[i] joins stage i to stage i+1
	for i := range links {
		links[i] = newEdgeStream(false, 0)
	}
	errs := make([]error, len(c.stages))
	run := func(i int) {
		st := c.stages[i]
		stdin, stdout := r, w
		if i > 0 {
			stdin = links[i-1].reader()
		}
		if i < last {
			stdout = links[i].writer()
		}
		// Done, or panicked: EOF downstream, the SIGPIPE analog
		// upstream. The chain's own ends are the caller's to close.
		defer func() {
			if i < last {
				links[i].writer().Close()
			}
			if i > 0 {
				links[i-1].reader().Close()
			}
		}()
		defer Contain("chain stage "+st.Name, &errs[i])
		errs[i] = c.reg.Run(st.Name, c.context(st, stdin, stdout))
	}
	// The last stage runs on the caller's goroutine: a one-stage chain
	// (a stream window's fold) starts none.
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(last)
	wg.Wait()
	for _, err := range errs[:last] {
		if err != nil && !isCleanTermination(err) {
			return 1, err
		}
	}
	return exitStatus(errs[last])
}

// chunkCollector accumulates one per-chunk invocation's output into a
// single owned block, adopting whole chunks when it can.
type chunkCollector struct{ buf []byte }

func (c *chunkCollector) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *chunkCollector) WriteChunk(b []byte) error {
	if len(c.buf) == 0 {
		commands.PutBlock(c.buf)
		c.buf = b
		return nil
	}
	c.buf = append(c.buf, b...)
	commands.PutBlock(b)
	return nil
}
