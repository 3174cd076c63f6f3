// Package agg implements PaSh's aggregator library (§5.2): for each
// parallelizable pure command it supplies a (map, aggregate) pair
// satisfying f(x·x') = agg(m(x)·m(x'), s), plus the aggregate command
// implementations themselves. The aggregators iterate over any number of
// input streams and apply pure fixups at stream boundaries, exactly as
// the paper describes.
package agg

import (
	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
)

// Resolve returns the (map, aggregate) pair for a command invocation, or
// false when no sound aggregator is known — in which case the node stays
// sequential (the conservative default). flagArgs are the invocation's
// non-stream arguments (flags and config operands).
//
// Aggregators whose output can be re-aggregated — agg(agg(a)·agg(b)) ==
// agg(a·b) — are marked Associative, which licenses the transformation
// to arrange them into fan-in-k trees at high widths instead of one
// flat n-ary merge (see dfg.Options.AggFanIn). Every aggregator here is
// associative except pash-agg-bigrams, whose output drops the boundary
// markers its own input format requires.
//
// Commands whose output ignores the order of their input lines are
// marked Commutative (see dfg.AggSpec): sort unless it keeps input order
// among key ties, the count and count-and-rank stages, wc, and grep -c.
func Resolve(name string, flagArgs []string, inv *annot.Invocation) (*dfg.AggSpec, bool) {
	switch name {
	case "sort":
		// sort -m already expects sorted runs; -o/-c/-R were demoted by
		// annotations before we get here.
		if inv.Opts.Has("-m") || inv.Opts.Has("-c") || inv.Opts.Has("-o") {
			return nil, false
		}
		// Merging sorted runs is associative, and stability (ties in
		// source order) composes level by level. Input order shows only
		// where distinct lines tie: under a key (-k, -n, -f, -d, -b) whose
		// ties -s or -u keep in input order instead of falling back to
		// the whole line.
		keyed := inv.Opts.Has("-k") || inv.Opts.Has("-n") || inv.Opts.Has("-f") ||
			inv.Opts.Has("-d") || inv.Opts.Has("-b")
		return &dfg.AggSpec{
			MapName: "sort", MapArgs: flagArgs,
			AggName: "sort", AggArgs: append([]string{"-m"}, flagArgs...),
			Associative: true,
			Commutative: !keyed || !inv.Opts.Has("-s") && !inv.Opts.Has("-u"),
		}, true
	case "uniq":
		// Boundary merging is implemented for plain uniq and uniq -c.
		for _, o := range inv.Opts.Options() {
			switch o {
			case "-c":
			default:
				return nil, false
			}
		}
		// The aggregate's output is itself valid uniq (-c) output, so
		// partial merges re-aggregate.
		return &dfg.AggSpec{
			MapName: "uniq", MapArgs: flagArgs,
			AggName: "pash-agg-uniq", AggArgs: flagArgs,
			Associative: true,
		}, true
	case "pash-sort-count":
		// The count stage that core puts in place of `sort FLAGS | uniq
		// -c` under a total order: each map counts its chunk's lines and
		// prints the distinct ones in order behind their counts, and the
		// aggregate merges those streams by line and sums the counts of
		// equal lines. A sum cares neither which map a count came from
		// nor in what order its lines arrived.
		return &dfg.AggSpec{
			MapName: name, MapArgs: flagArgs,
			AggName: "pash-agg-sort-count", AggArgs: flagArgs,
			Associative: true, Commutative: true,
		}, true
	case "pash-count-rank":
		// The count-and-rank stage that core puts in place of `sort
		// FLAGS | uniq -c | sort -n` (or -rn): each map counts its
		// chunk's lines and prints partial counts in any order, and the
		// aggregate sums the counts of equal lines and ranks them. Its
		// output is count lines too, so partial aggregates aggregate
		// again, and neither the maps' order nor their lines' matters.
		return &dfg.AggSpec{
			MapName: "pash-count", MapArgs: nil,
			AggName: "pash-agg-count-rank", AggArgs: flagArgs,
			Associative: true, Commutative: true,
		}, true
	case "wc":
		// Column sums of column sums; counts ignore line order. The maps
		// read stdin, so a single file operand's name reaches the output
		// only through the aggregate.
		aggArgs := flagArgs
		if ops := inv.Opts.Operands; len(ops) == 1 && ops[0] != "-" {
			aggArgs = append(flagArgs[:len(flagArgs):len(flagArgs)], "--label="+ops[0])
		}
		return &dfg.AggSpec{
			MapName: "wc", MapArgs: flagArgs,
			AggName: "pash-agg-wc", AggArgs: aggArgs,
			Associative: true, Commutative: true,
		}, true
	case "grep":
		// Only the counting form aggregates: sum of per-chunk counts.
		// Positional flags (-n, -m) have no sound chunk-local meaning.
		if !inv.Opts.Has("-c") || inv.Opts.Has("-n") || inv.Opts.Has("-m") ||
			inv.Opts.Has("-l") || inv.Opts.Has("-q") {
			return nil, false
		}
		return &dfg.AggSpec{
			MapName: "grep", MapArgs: flagArgs,
			AggName: "pash-agg-sum", AggArgs: nil,
			Associative: true, Commutative: true,
		}, true
	case "head", "tail":
		// head_K(x·x') == head_K(head_K(x)·head_K(x')), and likewise for
		// tail: taking K lines from one end is associative, and the
		// aggregate is the command itself over the map outputs (head and
		// tail here print no "==> f <==" headers). Whether the invocation
		// is such a count, in whatever spelling, is the commands' own
		// parser's call. head's Takes keeps t2 from planting a draining
		// barrier split in front of a command that reads K lines, and
		// limits what feeds it; head -n 0 still reads one line to stop.
		// head -n -K prints all but the last K lines: no count, so no
		// aggregator and no Takes, and it runs once.
		k, ok := commands.HeadTailLines(flagArgs)
		if !ok {
			return nil, false
		}
		spec := &dfg.AggSpec{
			MapName: name, MapArgs: flagArgs,
			AggName: "pash-agg-" + name, AggArgs: flagArgs,
			Associative: true,
		}
		if name == "head" {
			spec.Takes = max(k, 1)
		}
		return spec, true
	case "tac":
		if len(flagArgs) > 0 {
			return nil, false
		}
		// tac(x·x') == tac(x')·tac(x): concatenate map outputs in
		// reverse stream order (§5.2: tac "consumes stream descriptors
		// in reverse order"). Reversed concatenation of reversed
		// concatenations composes, so trees are sound.
		return &dfg.AggSpec{
			MapName: "tac", MapArgs: nil,
			AggName: "pash-agg-tac", AggArgs: nil,
			Associative: true,
		}, true
	case "bigrams-aux":
		// The §3.2 custom-aggregator story: map emits boundary markers,
		// the aggregate stitches cross-chunk bigrams back in. Its output
		// has the markers stripped, so it cannot feed another aggregate:
		// NOT associative — keep the flat n-ary stage.
		if len(flagArgs) > 0 {
			return nil, false
		}
		return &dfg.AggSpec{
			MapName: "bigrams-aux", MapArgs: []string{"--marked"},
			AggName: "pash-agg-bigrams", AggArgs: nil,
		}, true
	}
	return nil, false
}

// Install adds the aggregate command implementations to a command
// registry as library entries. They live on the PATH like any other
// command (§2.3), so both the in-process runtime and emitted scripts can
// invoke them.
func Install(reg *commands.Registry) {
	reg.Set("pash-agg-uniq", commands.Entry{Run: aggUniq})
	reg.Set("pash-agg-wc", commands.Entry{Run: aggWc})
	reg.Set("pash-agg-sum", commands.Entry{Run: aggSum})
	reg.Set("pash-agg-tac", commands.Entry{Run: aggTac})
	reg.Set("pash-agg-bigrams", commands.Entry{Run: aggBigrams})
	// The count and count-and-rank stages run only where a plan puts
	// them, so they are installed beside their aggregates and not as
	// builtins.
	reg.Set("pash-sort-count", commands.Entry{Run: commands.SortCount})
	reg.Set("pash-agg-sort-count", commands.Entry{Run: commands.SortCountMerge})
	reg.Set("pash-count-rank", commands.Entry{Run: commands.CountRank})
	reg.Set("pash-count", commands.Entry{Run: commands.CountLines})
	reg.Set("pash-agg-count-rank", commands.Entry{Run: commands.CountRankMerge})
	// head and tail aggregate themselves; the pash-agg- names stay what
	// plans, emitted scripts and pash-prims call them by.
	for _, name := range []string{"head", "tail"} {
		f, _ := commands.Std().Lookup(name)
		reg.Set("pash-agg-"+name, commands.Entry{Run: f})
	}
}
