// Package commands implements the UNIX command substrate: streaming,
// in-process Go implementations of the POSIX/GNU commands that PaSh's
// benchmarks exercise, plus the custom commands used by the paper's use
// cases. Each command is a function from argv + stdio to an exit status,
// so the runtime can wire them into dataflow graphs with one goroutine
// per node — the in-process analog of one UNIX process per command.
package commands

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Func is a command implementation. A nil error is exit status 0; an
// *ExitError carries a non-zero status without aborting the pipeline; any
// other error aborts execution.
type Func func(ctx *Context) error

// ExitError is a non-zero exit status that is still a "normal" result
// (e.g. grep with no matches exits 1).
type ExitError struct {
	Code int
}

func (e *ExitError) Error() string { return fmt.Sprintf("exit status %d", e.Code) }

// ExitCode extracts the conventional exit code from a command error:
// 0 for nil, the embedded code for *ExitError, 1 otherwise.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *ExitError
	if errors.As(err, &ee) {
		return ee.Code
	}
	return 1
}

// ErrUsage signals a command-line usage error.
var ErrUsage = errors.New("usage error")

// FS abstracts file access so the runtime can splice dataflow edges in
// place of named files (virtual FIFOs) without commands noticing.
type FS interface {
	Open(path string) (io.ReadCloser, error)
	Create(path string) (io.WriteCloser, error)
	Append(path string) (io.WriteCloser, error)
}

// OSFS is the real filesystem rooted at Dir (when relative paths are
// used). With Jail set, access is confined to Dir: absolute paths and
// relative paths that escape Dir (via "..") fail instead of reaching
// the host filesystem — the sandbox used for untrusted scripts.
type OSFS struct {
	Dir  string
	Jail bool
}

// ErrJailEscape is returned for paths a jailed OSFS refuses to touch.
var ErrJailEscape = errors.New("commands: path escapes sandbox directory")

// Resolve maps path to the host path it names: joined onto Dir when
// relative, refused with ErrJailEscape when the filesystem is jailed and
// the path leads outside Dir.
func (fs OSFS) Resolve(path string) (string, error) {
	if fs.Jail {
		if filepath.IsAbs(path) || fs.Dir == "" {
			return "", fmt.Errorf("%w: %s", ErrJailEscape, path)
		}
		joined := filepath.Join(fs.Dir, path)
		root := filepath.Clean(fs.Dir)
		if joined != root && !strings.HasPrefix(joined, root+string(filepath.Separator)) {
			return "", fmt.Errorf("%w: %s", ErrJailEscape, path)
		}
		return joined, nil
	}
	if filepath.IsAbs(path) || fs.Dir == "" {
		return path, nil
	}
	return filepath.Join(fs.Dir, path), nil
}

// Open opens a file for reading.
func (fs OSFS) Open(path string) (io.ReadCloser, error) {
	p, err := fs.Resolve(path)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Create truncates/creates a file for writing.
func (fs OSFS) Create(path string) (io.WriteCloser, error) {
	p, err := fs.Resolve(path)
	if err != nil {
		return nil, err
	}
	return os.Create(p)
}

// Append opens a file for appending.
func (fs OSFS) Append(path string) (io.WriteCloser, error) {
	p, err := fs.Resolve(path)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// VirtualStreamPrefix namespaces the runtime's in-process edge streams
// in the overlay filesystem: an operand with this prefix names a live
// dataflow edge, not a real file. Extension-API aggregator wrappers use
// it to tell stream operands from configuration arguments.
const VirtualStreamPrefix = "/pash/edge/"

// Context carries everything a command invocation needs.
type Context struct {
	Name   string
	Args   []string
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
	FS     FS
	Env    map[string]string
	// Exec lets commands that run other commands (xargs) dispatch through
	// the registry.
	Exec func(name string, args []string, stdin io.Reader, stdout io.Writer) error
}

// Getenv looks up a context environment variable.
func (ctx *Context) Getenv(key string) string {
	if ctx.Env == nil {
		return ""
	}
	return ctx.Env[key]
}

// Errorf writes a diagnostic to stderr and returns a usage error.
func (ctx *Context) Errorf(format string, args ...interface{}) error {
	fmt.Fprintf(ctx.Stderr, "%s: %s\n", ctx.Name, fmt.Sprintf(format, args...))
	return fmt.Errorf("%s: %w", ctx.Name, ErrUsage)
}

// OpenInputs opens the command's input streams following the UNIX
// convention: each operand is opened as a file, "-" means stdin, and no
// operands at all means stdin.
func (ctx *Context) OpenInputs(operands []string) ([]io.Reader, func(), error) {
	if len(operands) == 0 {
		return []io.Reader{ctx.stdin()}, func() {}, nil
	}
	var readers []io.Reader
	var closers []io.Closer
	cleanup := func() {
		for _, c := range closers {
			c.Close()
		}
	}
	for _, op := range operands {
		if op == "-" {
			readers = append(readers, ctx.stdin())
			continue
		}
		f, err := ctx.FS.Open(op)
		if err != nil {
			cleanup()
			fmt.Fprintf(ctx.Stderr, "%s: %v\n", ctx.Name, err)
			return nil, nil, err
		}
		readers = append(readers, f)
		closers = append(closers, f)
	}
	return readers, cleanup, nil
}

func (ctx *Context) stdin() io.Reader {
	if ctx.Stdin == nil {
		return strings.NewReader("")
	}
	return ctx.Stdin
}

// KernelMaker builds the composable per-block kernel for one invocation
// of an externally-registered command, or reports false when this flag
// combination has no kernel form. It is the extension-API analog of the
// builtin kernelMakers table: a command that supplies one participates
// in stage fusion exactly like the builtins.
type KernelMaker func(args []string) (Kernel, bool)

// AggSpec is the extension-API (map, aggregate) pair for a
// user-registered pure command: running the map on each input chunk and
// the aggregate over the map outputs must reproduce the original
// command. It mirrors dfg.AggSpec without importing it (the compiler
// converts). Nil MapArgs/AggArgs mean "reuse the invocation's own
// flags" (the sort/sort -m convention); MapName "" means the command
// itself is its own map.
type AggSpec struct {
	MapName     string
	MapArgs     []string
	AggName     string
	AggArgs     []string
	Associative bool
	StopsEarly  bool
}

// registryGen hands out globally unique generation numbers: any two
// registries that ever diverged by a registration carry different
// generations, so plan-cache keys built from them can never collide.
var registryGen atomic.Uint64

// Registry maps command names to implementations — the in-process PATH —
// plus the extension metadata (kernels, aggregator specs) that lets
// user-registered commands join the planner's fast paths.
type Registry struct {
	mu      sync.RWMutex
	cmds    map[string]Func
	kernels map[string]KernelMaker
	aggs    map[string]*AggSpec
	// custom marks names whose implementation was supplied through the
	// public registration path. A custom implementation shadows every
	// piece of builtin metadata for that name: builtin kernels and
	// aggregator pairs no longer apply (they describe the replaced
	// implementation, not the user's).
	custom map[string]bool
	gen    uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cmds:    map[string]Func{},
		kernels: map[string]KernelMaker{},
		aggs:    map[string]*AggSpec{},
		custom:  map[string]bool{},
		gen:     registryGen.Add(1),
	}
}

// Register adds or replaces a command. The name is marked
// user-registered: it shadows the builtin of the same name completely,
// including the builtin's kernel and aggregator metadata (re-register
// those through RegisterKernel/RegisterAgg if the replacement supports
// them).
func (r *Registry) Register(name string, f Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cmds[name] = f
	r.custom[name] = true
	// A fresh implementation invalidates any extension metadata that
	// described the previous one.
	delete(r.kernels, name)
	delete(r.aggs, name)
	r.gen = registryGen.Add(1)
}

// RegisterKernel attaches a kernel constructor to a (user-registered)
// command name, making its invocations fusable and framed-splittable.
func (r *Registry) RegisterKernel(name string, mk KernelMaker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernels[name] = mk
	r.gen = registryGen.Add(1)
}

// RegisterAgg attaches a (map, aggregate) pair to a (user-registered)
// command name, letting the parallelization transformation apply to its
// pure invocations.
func (r *Registry) RegisterAgg(name string, spec AggSpec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aggs[name] = &spec
	r.gen = registryGen.Add(1)
}

// Lookup finds a command.
func (r *Registry) Lookup(name string) (Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.cmds[name]
	return f, ok
}

// IsCustom reports whether the name's implementation came through the
// public registration path (and therefore shadows builtin metadata).
func (r *Registry) IsCustom(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.custom[name]
}

// AggFor returns the externally-registered aggregator pair for a
// command name.
func (r *Registry) AggFor(name string) (AggSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if spec := r.aggs[name]; spec != nil {
		return *spec, true
	}
	return AggSpec{}, false
}

// NewKernel builds the kernel for an invocation, preferring
// externally-registered kernels and falling back to the builtin table —
// except for custom names, whose user implementation shadows the
// builtin kernel (which would be byte-faithful to the wrong command).
func (r *Registry) NewKernel(name string, args []string) (Kernel, bool) {
	r.mu.RLock()
	mk := r.kernels[name]
	custom := r.custom[name]
	r.mu.RUnlock()
	if mk != nil {
		return mk(args)
	}
	if custom {
		return nil, false
	}
	return NewKernel(name, args)
}

// KernelCapable reports whether the invocation can run as a fused
// kernel under this registry (the planner's dfg.Options.KernelCapable).
func (r *Registry) KernelCapable(name string, args []string) bool {
	_, ok := r.NewKernel(name, args)
	return ok
}

// Generation identifies the registry's registration state. It changes
// on every Register/RegisterKernel/RegisterAgg call and is globally
// unique across diverged registries, so plan caches can key on it.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Clone returns an independent copy of the registry: registrations on
// either side no longer affect the other. It backs the session layer's
// copy-on-write extension story. The clone keeps the generation — it is
// indistinguishable from its parent until someone registers into it.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nr := &Registry{
		cmds:    make(map[string]Func, len(r.cmds)),
		kernels: make(map[string]KernelMaker, len(r.kernels)),
		aggs:    make(map[string]*AggSpec, len(r.aggs)),
		custom:  make(map[string]bool, len(r.custom)),
		gen:     r.gen,
	}
	for k, v := range r.cmds {
		nr.cmds[k] = v
	}
	for k, v := range r.kernels {
		nr.kernels[k] = v
	}
	for k, v := range r.aggs {
		nr.aggs[k] = v
	}
	for k, v := range r.custom {
		nr.custom[k] = v
	}
	return nr
}

// Names returns registered command names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.cmds))
	for k := range r.cmds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes a command by name with the given context. The context's
// Name is set and, when unset, stdio/FS get safe defaults. Exec defaults
// to dispatching back into the registry.
func (r *Registry) Run(name string, ctx *Context) error {
	f, ok := r.Lookup(name)
	if !ok {
		if ctx.Stderr != nil {
			fmt.Fprintf(ctx.Stderr, "%s: command not found\n", name)
		}
		return fmt.Errorf("commands: %q: not found", name)
	}
	ctx.Name = name
	if ctx.Stdout == nil {
		ctx.Stdout = io.Discard
	}
	if ctx.Stderr == nil {
		ctx.Stderr = io.Discard
	}
	if ctx.FS == nil {
		ctx.FS = OSFS{}
	}
	if ctx.Exec == nil {
		ctx.Exec = func(name string, args []string, stdin io.Reader, stdout io.Writer) error {
			sub := *ctx
			sub.Args = args
			sub.Stdin = stdin
			sub.Stdout = stdout
			return r.Run(name, &sub)
		}
	}
	return f(ctx)
}

var (
	stdOnce sync.Once
	stdReg  *Registry
)

// Std returns the shared registry with every built-in command installed.
func Std() *Registry {
	stdOnce.Do(func() {
		stdReg = NewRegistry()
		installAll(stdReg)
	})
	return stdReg
}

// NewStd returns a fresh registry with all built-ins, isolated from the
// shared one.
func NewStd() *Registry {
	r := NewRegistry()
	installAll(r)
	return r
}

func installAll(r *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Builtins bypass Register so they carry no custom mark: their
	// kernel and aggregator metadata stays live until a user
	// registration shadows the name.
	for name, f := range builtins {
		r.cmds[name] = f
	}
}

// builtins is populated by the per-command files' register calls.
var builtins = map[string]Func{}

func register(name string, f Func) {
	if _, dup := builtins[name]; dup {
		panic("commands: duplicate registration of " + name)
	}
	builtins[name] = f
}
