package pash

// This file is the extension API: the path for making a user command a
// full citizen of the parallelizing compiler. The paper's claim (§3.2)
// is that a light-touch annotation suffices for arbitrary commands to
// join automatic parallelization; CommandSpec carries that annotation
// as one Appendix A record (the language of the standard library's
// records), plus the two runtime hooks the DSL cannot express: a
// KernelFactory (stage fusion, framed round-robin splitting) and an
// AggregatorSpec (map/aggregate parallelization, fan-in aggregation
// trees). A command registered with all three parallelizes exactly
// like a builtin.

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/core"
)

// Kernel is the per-block form of a stateless command: the contract
// that lets it join fused chains and framed round-robin regions. It is
// the interface the builtin kernels implement.
//
// Apply appends the transform of one input block to out and returns the
// grown slice; it must not retain in. Blocks arrive in stream order but
// are not newline-aligned — kernels operating on lines must carry
// partial lines across calls. Finish appends any end-of-stream output
// and resets the kernel to its initial state (one kernel value
// processes a sequence of independent streams under the framed
// protocol: one stream per chunk). Status reports the accumulated exit
// status across all streams; nil means 0.
type Kernel = commands.Kernel

// KernelFactory builds the kernel for one invocation of the command, or
// reports false when this flag combination has no kernel form (the
// command then runs unfused, which is always safe). A nil kernel
// reported with true counts as no kernel form.
type KernelFactory = commands.KernelMaker

// AggregatorFunc is an aggregate implementation: it merges the partial
// outputs of parallel map instances back into the sequential command's
// output. args carries the aggregate's configuration arguments (its
// flags — stream operands are already stripped); inputs are the partial
// result streams in original chunk order.
type AggregatorFunc func(args []string, inputs []io.Reader, stdout io.Writer) error

// AggregatorSpec supplies the (map, aggregate) pair that parallelizes a
// pure command (§3.2 Custom Aggregators): running the map on every
// input chunk and the aggregate over the map outputs must reproduce the
// original command.
type AggregatorSpec struct {
	// Agg is the aggregate implementation, registered under AggName.
	// Nil means AggName refers to a command that already exists in the
	// session (e.g. the command aggregates itself with different flags,
	// like sort / sort -m).
	Agg AggregatorFunc
	// AggName is the aggregate command's name (required).
	AggName string
	// AggArgs configures the aggregate; nil reuses the invocation's own
	// flags (pass an empty non-nil slice for "no arguments").
	AggArgs []string
	// MapName is the per-chunk map command; "" means the command maps
	// itself (each chunk runs the original invocation).
	MapName string
	// MapArgs configures the map; nil reuses the invocation's flags.
	MapArgs []string
	// Associative marks aggregates whose output can be re-aggregated:
	// agg(agg(a)·agg(b)) == agg(a·b). Only associative aggregates are
	// arranged into fan-in aggregation trees at high widths; the
	// conservative default keeps the flat n-ary stage.
	Associative bool
	// StopsEarly marks prefix-takers (head-like commands) so the
	// planner never plants a draining barrier split in front of them.
	StopsEarly bool
}

// CommandSpec is a complete registration: implementation,
// classification, and the optional hooks that admit the command to the
// planner's fast paths. Zero hooks is always sound — the command runs,
// classified by Annotation (or conservatively when it is empty).
type CommandSpec struct {
	// Name is the command name scripts invoke (required).
	Name string
	// Run is the implementation (required).
	Run CommandFunc
	// Annotation classifies invocations: one record of the Appendix A
	// annotation language, named Name, e.g.
	//
	//	score { | -t => (P, [stdin], [stdout]) | _ => (S, [stdin], [stdout]) }
	//
	// Clauses are tried in order; an invocation matching none falls
	// back to the conservative side-effectful default. An optional
	// `takesvalue -d -f;` first element names options that consume the
	// next argument. "" leaves the name unannotated: the side-effectful
	// default, never parallelized. The record replaces whatever record
	// the name had, a builtin's semantic checks included (see
	// Session.Register).
	Annotation string
	// Kernel, when set, gives stateless invocations a per-block form:
	// they join fused chains and framed round-robin split regions.
	Kernel KernelFactory
	// Aggregator, when set, parallelizes pure invocations via
	// map + aggregate (and aggregation trees when Associative).
	Aggregator *AggregatorSpec
}

// Register installs a command spec into the session, making the
// command a first-class citizen of the parallelizing compiler: it
// classifies through Annotation, round-robin splits and fuses through
// Kernel, and joins fan-in aggregation trees through Aggregator.
//
// One rule decides shadowing: a registration replaces the name's whole
// entry within this session — implementation, kernel, aggregator pair,
// annotation record and the semantic checks a builtin's record carries —
// whether the name held a builtin or an earlier registration. Only what
// the spec supplies applies. An Aggregator with an Agg installs AggName
// the same way, as an unannotated command of its own. Registration
// starts a fresh plan cache and bumps the registry generation, so no
// plan made under the old entry is served.
func (s *Session) Register(spec CommandSpec) error {
	if spec.Name == "" {
		return errors.New("pash: CommandSpec.Name is required")
	}
	if spec.Run == nil {
		return errors.New("pash: CommandSpec.Run is required")
	}
	if spec.Aggregator != nil {
		if spec.Aggregator.AggName == "" {
			return errors.New("pash: AggregatorSpec.AggName is required")
		}
		if spec.Aggregator.Agg != nil && spec.Aggregator.AggName == spec.Name {
			// Registering the aggregate implementation under the
			// command's own name would overwrite Run. Self-aggregation
			// (sort / sort -m style) is spelled with a nil Agg.
			return errors.New("pash: AggregatorSpec.AggName must differ from CommandSpec.Name when Agg is supplied (use a nil Agg for self-aggregating commands)")
		}
	}
	var rec *annot.Record
	if spec.Annotation != "" {
		r, err := annot.ParseRecord(spec.Annotation)
		if err != nil {
			return fmt.Errorf("pash: annotation for %q: %w", spec.Name, err)
		}
		if r.Name != spec.Name {
			return fmt.Errorf("pash: annotation record names %q, want %q", r.Name, spec.Name)
		}
		rec = r
	}

	var pair *commands.AggSpec
	if ag := spec.Aggregator; ag != nil {
		pair = &commands.AggSpec{
			MapName:     ag.MapName,
			MapArgs:     ag.MapArgs,
			AggName:     ag.AggName,
			AggArgs:     ag.AggArgs,
			Associative: ag.Associative,
		}
		if ag.StopsEarly {
			pair.Takes = commands.TakesUnknown
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cc := *s.compiler
	cc.Cmds = cc.Cmds.Clone()
	cc.Cmds.Set(spec.Name, commands.Entry{Run: wrapCommand(spec.Run), Kernel: spec.Kernel, Agg: pair, User: true, Record: rec})
	if ag := spec.Aggregator; ag != nil {
		if ag.Agg != nil {
			// The aggregate is a user entry of its own, with no record:
			// nothing the name meant before describes the wrapper.
			cc.Cmds.Set(ag.AggName, commands.Entry{Run: wrapAggregator(ag.Agg), User: true})
		} else if _, ok := cc.Cmds.Lookup(ag.AggName); !ok {
			// A nil Agg promises AggName already exists; surface the
			// broken promise here rather than as command-not-found the
			// first time a script parallelizes.
			return fmt.Errorf("pash: AggregatorSpec.AggName %q names no registered command (supply Agg or register it first)", ag.AggName)
		}
	}
	cc.Plans = core.NewPlanCache(0)
	s.compiler = &cc
	return nil
}

// wrapCommand adapts the public CommandFunc to the internal command
// contract.
func wrapCommand(fn CommandFunc) commands.Func {
	return func(ctx *commands.Context) error {
		return fn(ctx.Args, ctx.Stdin, ctx.Stdout)
	}
}

// wrapAggregator adapts an AggregatorFunc: aggregate nodes receive
// their configuration arguments followed by one operand per input
// stream (in-process, those operands are virtual edge names); the
// wrapper opens the streams and strips them from argv.
func wrapAggregator(fn AggregatorFunc) commands.Func {
	return func(ctx *commands.Context) error {
		var flags, streams []string
		for _, a := range ctx.Args {
			if a == "-" || strings.HasPrefix(a, commands.VirtualStreamPrefix) {
				streams = append(streams, a)
			} else {
				flags = append(flags, a)
			}
		}
		readers, cleanup, err := ctx.OpenInputs(streams)
		if err != nil {
			return err
		}
		defer cleanup()
		return fn(flags, readers, ctx.Stdout)
	}
}
