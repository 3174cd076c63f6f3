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
	"math"
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
	// Limit, when positive, is the planner's promise that whatever reads
	// the command's standard output reads only its first Limit lines
	// (dfg.Node.Limit). A command may stop after them; ignoring it is
	// always correct, and every command but sort does.
	Limit int
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
// of a command, or reports false when this flag combination has no
// kernel form. A builtin entry carries its maker from kernelMakers; a
// user entry carries the one its registration supplied, and joins stage
// fusion exactly like the builtins.
type KernelMaker func(args []string) (Kernel, bool)

// AggSpec is a (map, aggregate) implementation pair for a P command
// (§3.2 Custom Aggregators): running MapName on each input chunk and
// AggName over the map outputs must reproduce the original command. The
// agg library resolves the builtins' pairs; a user entry carries its
// own, in which nil MapArgs/AggArgs mean "reuse the invocation's own
// flags" (the sort/sort -m convention) and MapName "" means the command
// itself is its own map.
type AggSpec struct {
	MapName string
	MapArgs []string
	AggName string
	AggArgs []string
	// Associative marks aggregators whose output can be re-aggregated:
	// agg(agg(x1···xk)·agg(xk+1···xn)) == agg(x1···xn). Only associative
	// aggregators may be arranged into fan-in-k trees; the conservative
	// default (false) keeps the flat n-ary aggregate.
	Associative bool
	// Takes is the number of lines a prefix-taking command (head -n K)
	// reads at most; 0 means it is not one. Inserting a split before a
	// prefix-taker (t2) is pure loss — the barrier split drains the whole
	// input the command would never have read, and early-exit
	// propagation dies at the barrier — while T still applies when an
	// upstream cat already provides parallelism. The node that feeds
	// its standard input gets Node.Limit = Takes. A prefix-taker whose
	// count the planner cannot read (a user command registered as
	// stopping early) takes TakesUnknown lines, which limits nothing.
	Takes int
	// Commutative marks commands whose output depends only on the
	// multiset of their input lines: permuting the lines leaves the
	// output bytes unchanged. Their maps need no contiguous partition, so
	// such a command absorbs an order-restoring KindMerge in front of it
	// (each map reads one framed replica's interleaved stream as is) and
	// is fed by the streaming round-robin split instead of the barrier
	// split. The contract is exactly that permutation invariance;
	// internal/agg's TestCommutativeIsPermutationInvariant enforces it
	// for every spec that sets the flag and shows sort -s/-u under a key
	// failing it.
	Commutative bool
}

// TakesUnknown is AggSpec.Takes for a prefix-taker of unknown count.
const TakesUnknown = math.MaxInt

// Entry is everything the registry holds for one command name. A name
// has one entry, and installing one replaces all of it: a kernel or an
// aggregator pair never outlives the implementation it describes.
type Entry struct {
	// Run is the implementation.
	Run Func
	// Kernel builds an invocation's per-block form; nil means none.
	Kernel KernelMaker
	// Agg is a user entry's (map, aggregate) pair; nil means none.
	Agg *AggSpec
	// User marks an entry installed through the public extension path.
	// Its Agg is the only pair it has (a library entry's comes from the
	// agg library), and it never ships to a worker, whose registry does
	// not hold it.
	User bool
}

// registryGen hands out globally unique generation numbers: any two
// registries that ever diverged by a registration carry different
// generations, so plan-cache keys built from them can never collide.
var registryGen atomic.Uint64

// Registry maps command names to entries — the in-process PATH plus the
// metadata that admits a command to the planner's fast paths.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
	gen     uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]Entry{}, gen: registryGen.Add(1)}
}

// Set installs e under name, replacing the name's whole entry.
func (r *Registry) Set(name string, e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = e
	r.gen = registryGen.Add(1)
}

// Register installs f under name as a user entry with no kernel and no
// aggregator pair.
func (r *Registry) Register(name string, f Func) {
	r.Set(name, Entry{Run: f, User: true})
}

// Entry returns the name's entry.
func (r *Registry) Entry(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Lookup finds a command's implementation.
func (r *Registry) Lookup(name string) (Func, bool) {
	e, ok := r.Entry(name)
	return e.Run, ok
}

// NewKernel builds the kernel for an invocation from the name's entry.
// A maker that reports true with a nil kernel counts as no kernel form.
func (r *Registry) NewKernel(name string, args []string) (Kernel, bool) {
	e, _ := r.Entry(name)
	if e.Kernel == nil {
		return nil, false
	}
	k, ok := e.Kernel(args)
	if !ok || k == nil {
		return nil, false
	}
	return k, true
}

// KernelCapable reports whether the invocation can run as a fused
// kernel under this registry (the planner's dfg.Options.KernelCapable).
func (r *Registry) KernelCapable(name string, args []string) bool {
	_, ok := r.NewKernel(name, args)
	return ok
}

// Generation identifies the registry's registration state. It changes
// on every Set and is globally unique across diverged registries, so
// plan caches can key on it.
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
	nr := &Registry{entries: make(map[string]Entry, len(r.entries)), gen: r.gen}
	for k, v := range r.entries {
		nr.entries[k] = v
	}
	return nr
}

// Names returns registered command names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
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
	for name, f := range builtins {
		r.entries[name] = Entry{Run: f, Kernel: kernelMakers[name]}
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
