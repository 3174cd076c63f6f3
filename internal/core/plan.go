package core

import (
	"container/list"
	"context"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// The plan cache splits region compilation into a pure *planning* step —
// expand-independent: classify, lift to a DFG, optimize — and a cheap
// *instantiation* step that clones the planned template and binds
// per-run IO. Loops like
//
//	for f in *; do cut -f1 "$f" | grep x | wc -l; done
//
// hit the same plan every iteration: the expanded argv differs only in
// the operand, so each distinct argv shape compiles once and every
// later iteration pays one graph clone instead of the full
// compile+optimize pass (Tab. 2's compilation cost, amortized away).
//
// Cache key. A plan is keyed by the canonical fingerprint of the
// *expanded* region — per stage: command name, argv, and resolved
// redirections, all length-prefixed — concatenated with the planning
// options that shape the optimized graph (effective width, preset,
// fusion). Keying on expanded argv makes env-dependent regions miss
// exactly when their argv changes: `grep "$PAT" f` re-plans when PAT
// changes and hits when it does not. Per-run state that planning never reads — the variable
// environment snapshot, the working directory, the stdio bindings — is
// deliberately outside the key; it binds at instantiation/execution.

// regionKey canonically fingerprints an expanded region. Every element
// is length-prefixed so no argv or path can collide across boundaries.
// This runs on every region execution (hit or miss), so it avoids fmt.
func regionKey(stages []Stage) string {
	n := 0
	for _, st := range stages {
		n += 8 + len(st.Name)
		for _, a := range st.Args {
			n += 8 + len(a)
		}
		for _, r := range st.Redirs {
			n += 32 + len(r.Target) + len(r.Body)
		}
	}
	b := make([]byte, 0, n)
	for _, st := range stages {
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(st.Name)), 10)
		b = append(b, ':')
		b = append(b, st.Name...)
		for _, a := range st.Args {
			b = append(b, 'a')
			b = strconv.AppendInt(b, int64(len(a)), 10)
			b = append(b, ':')
			b = append(b, a...)
		}
		for _, r := range st.Redirs {
			b = append(b, 'r')
			b = strconv.AppendInt(b, int64(r.N), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(r.Op), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(len(r.Target)), 10)
			b = append(b, ':')
			b = append(b, r.Target...)
			if r.Body != "" {
				b = append(b, 'h')
				b = strconv.AppendInt(b, int64(len(r.Body)), 10)
				b = append(b, ':')
				b = append(b, r.Body...)
			}
		}
	}
	return string(b)
}

// planKey extends a region fingerprint with the options that planning
// consults, at the given effective width, plus the command registry's
// generation. The generation makes re-registration bust the cache by
// construction: registering a command, kernel, aggregator, or annotation
// bumps the registry's globally unique generation, so a cached plan
// built against the old registry can never be served for the new one —
// even when a cache outlives a registration or is shared across
// compiler snapshots.
func (c *Compiler) planKey(region string, width int) string {
	o := c.Opts
	b := make([]byte, 0, len(region)+72)
	b = append(b, 'g')
	b = strconv.AppendUint(b, c.Cmds.Generation(), 10)
	b = append(b, 'w')
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(o.Preset), 10)
	if o.DisableFusion {
		b = append(b, 'u')
	}
	if c.Workers != nil {
		// Distributed plans embed worker assignments; key them to the
		// membership epoch so a pool change re-plans instead of
		// dispatching to a vanished worker.
		b = append(b, 'W')
		b = append(b, c.Workers.Fingerprint()...)
	}
	b = append(b, '|')
	b = append(b, region...)
	return string(b)
}

// Break-even. A second replica costs a split, a merge or aggregator, and
// their pipes and goroutines — a fixed price — and the round-robin split
// deals whole 64 KiB blocks, so an input of a few blocks lands on one
// replica whatever the plan says. perReplicaBytes is the input each
// replica must have to itself before that price is paid back. The sweep
// in ledger/README.md (BenchmarkBreakEven: cut | grep -c over 16 KB - 4 MB
// at width 1 and 2) has width 2 at 1.5x the wall at 16 KB, within 10%
// either way — and dearer in CPU — from 128 KB to 1 MB, and ahead by a
// quarter from 2 MB: eight blocks a replica plans the second one from
// 1 MiB. Every width this package plans from a measurement is
// work / per-replica work, in bytes or in time.
const (
	perReplicaBlocks = 8
	perReplicaBytes  = perReplicaBlocks * commands.BlockSize
	// perReplicaWall is the same break-even in time, for a region known
	// only by its measured history: the wall the sweep's width-1 pipeline
	// took over perReplicaBytes (0.93 ms).
	perReplicaWall = time.Millisecond
)

// widthFor is the break-even rule: one replica per perReplica of work, at
// least one, at most asked.
func widthFor(work, perReplica int64, asked int) int {
	return int(max(1, min(int64(asked), work/perReplica)))
}

// planEntry is one cached template.
type planEntry struct {
	key   string
	tmpl  *dfg.Graph
	width int
}

// regionStats is what the cache remembers about a region across runs,
// keyed by its fingerprint: its measured executions (the JIT loop) and
// what it reads from outside itself.
type regionStats struct {
	key  string
	runs int64
	// ewmaWall is an exponentially-weighted moving average of region
	// wall time (alpha 1/4).
	ewmaWall time.Duration
	// inputs is filled when the region is first lifted, so every later
	// instantiation sizes its input without lifting again.
	inputs *regionInputs
}

// regionInputs names what a region reads from outside itself: the
// graph-input edges of its lifted graph.
type regionInputs struct {
	files   []string // file operands and `< file` redirects, as written
	stdin   bool     // an edge reads the script's standard input
	literal int64    // heredoc bytes
	// sized says the bytes of these inputs state the region's work. They
	// do not when a stage makes its own data (no input: seq), has effects
	// or is unknown (class E), is a user command, or reads its input as
	// an index of other things to read or run (xargs, file).
	sized bool
}

// RegionInput is what the planner may ask about a region's input before
// the region runs: the job's view of the filesystem, for the size of the
// files the region names, and the reader its stdin edge would be bound to.
type RegionInput struct {
	FS    commands.OSFS
	Stdin io.Reader
}

// bytes totals the region's input where every part of it can be stated.
// Files are resolved through the job's filesystem: a path a sandboxed job
// may not open is never handed to stat, it is just unknown.
func (ri *regionInputs) bytes(in RegionInput) (int64, bool) {
	if !ri.sized {
		return 0, false
	}
	total := ri.literal
	for _, path := range ri.files {
		p, err := in.FS.Resolve(path)
		if err != nil {
			return 0, false
		}
		fi, err := os.Stat(p)
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		total += fi.Size()
	}
	if ri.stdin {
		n, ok := readerBytes(in.Stdin)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// readerBytes reports how many bytes r has left, when r can say: a
// regular file (size less offset), a reader with Len (bytes.Reader,
// strings.Reader, pash-serve's Content-Length body), or no stdin at all.
// A pipe, a socket or a terminal cannot.
func readerBytes(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case nil:
		return 0, true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return max(fi.Size()-off, 0), true
	case interface{ Len() int }:
		return int64(r.Len()), true
	}
	return 0, false
}

// inputsOf reads a freshly lifted graph's inputs off its boundary edges.
func (c *Compiler) inputsOf(g *dfg.Graph) *regionInputs {
	ri := &regionInputs{sized: true}
	for _, n := range g.Nodes {
		if len(n.In) == 0 || n.Class == annot.SideEffectful || c.isUser(n.Name) || commands.InputIsIndex(n.Name) {
			ri.sized = false
		}
	}
	for _, e := range g.InputEdges() {
		switch e.Source.Kind {
		case dfg.BindFile:
			ri.files = append(ri.files, e.Source.Path)
		case dfg.BindStdin:
			ri.stdin = true
		case dfg.BindLiteral:
			ri.literal += int64(len(e.Source.Data))
		}
	}
	return ri
}

// regionWidth is the one path from the width a region asks for to the
// width it runs at, for a script region and a stream window alike, taken
// once per region before it is planned. The job's replica budget caps the
// ask. Under every preset but Planned the capped ask is the plan.
// Otherwise the width is planned from the best statement of the region's
// work there is, in this order: the bytes of its inputs, where
// the planner can state them all (inputs.bytes); else the region's
// measured wall; else nothing is known, the region is assumed large and
// keeps the capped ask — a pipe into pash runs as wide as it was asked to.
// Last, the shared scheduler grants tokens for the replicas past the
// first; the caller runs the region, then calls release.
//
// A region seen for the first time is lifted here to learn what it reads;
// the lifted graph is returned for planLifted to optimize, so a cache
// miss still lifts once. After that the region's inputs are remembered
// beside its history and deciding costs one stat per file operand.
func (c *Compiler) regionWidth(stages []Stage, region string, asked int, budget *runtime.Budget, in RegionInput) (wp dfg.WidthPlan, lifted *dfg.Graph, release func(), err error) {
	capped := budget.CapWidth(asked)
	wp = dfg.WidthPlan{Asked: asked, Planned: capped}
	if c.planWidth() && capped > 1 {
		var rs regionStats
		if c.Plans != nil {
			rs = c.Plans.region(region)
		}
		if rs.inputs == nil {
			if lifted, err = c.lift(stages); err != nil {
				return wp, nil, nil, err
			}
			rs.inputs = c.inputsOf(lifted)
			if c.Plans != nil {
				c.Plans.memoInputs(region, rs.inputs)
			}
		}
		if n, ok := rs.inputs.bytes(in); ok {
			wp.Planned, wp.Reason, wp.Measure = widthFor(n, perReplicaBytes, capped), dfg.WidthInput, n
		} else if rs.runs > 0 {
			wp.Planned, wp.Reason, wp.Measure = widthFor(int64(rs.ewmaWall), int64(perReplicaWall), capped), dfg.WidthHistory, int64(rs.ewmaWall)
		} else {
			wp.Reason = dfg.WidthUnknown
		}
	}
	if wp.Planned == capped && capped < wp.Asked {
		wp.Reason, wp.Measure = dfg.WidthBudget, 0
	}
	release = func() {}
	if c.Sched != nil {
		// The shared token pool caps what the machine can spare right now.
		// A width-1 region takes no token.
		var granted int
		if granted, release = c.Sched.AcquireWidth(wp.Planned); granted < wp.Planned {
			wp.Planned, wp.Reason, wp.Measure = granted, dfg.WidthGranted, int64(wp.Planned)
		}
	}
	return wp, lifted, release, nil
}

// lift is CompilePipeline for a region on its way to execution, counted
// where there is a cache to count in.
func (c *Compiler) lift(stages []Stage) (*dfg.Graph, error) {
	if c.Plans != nil {
		c.Plans.lifts.Add(1)
	}
	return c.CompilePipeline(stages, RegionIO{})
}

// PlanCacheStats is a point-in-time cache snapshot.
type PlanCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	// Lifts counts regions lifted to a graph on their way to execution: a
	// miss lifts once, a hit never (its inputs are remembered).
	Lifts int64 `json:"lifts"`
	// Regions is the number of regions with a remembered history.
	Regions int `json:"regions"`
	// Widths counts executed regions by what decided their width; its
	// "input" row is the size decisions.
	Widths dfg.WidthTally `json:"widths"`
}

// PlanCache is an LRU of planned+optimized region templates plus a
// second, larger LRU of per-region history. All methods are safe for
// concurrent use; templates are immutable once inserted (lookups clone).
type PlanCache struct {
	mu       sync.Mutex
	cap      int
	byKey    map[string]*list.Element // planKey -> *planEntry element
	lru      list.List
	stats    map[string]*list.Element // regionKey -> *regionStats element
	statsLRU list.List
	hits     int64
	misses   int64
	widths   dfg.WidthTally
	lifts    atomic.Int64
}

// maxTrackedRegions bounds the history independently of the plan LRU
// (histories are tiny; plans hold whole graphs). Past it the least
// recently seen region is forgotten, so a daemon, or a loop whose argv
// changes every iteration, keeps learning about the regions it runs now.
const maxTrackedRegions = 4096

// NewPlanCache builds a cache holding at most capacity templates;
// capacity <= 0 selects the default (256).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &PlanCache{
		cap:   capacity,
		byKey: map[string]*list.Element{},
		stats: map[string]*list.Element{},
	}
}

// lookup returns the immutable template for key, if cached.
func (pc *PlanCache) lookup(key string) (*dfg.Graph, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.byKey[key]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.hits++
	pc.lru.MoveToFront(el)
	return el.Value.(*planEntry).tmpl, true
}

// insert stores a template, evicting the least-recently-used entry
// beyond capacity. The caller must not mutate tmpl after insertion.
func (pc *PlanCache) insert(key string, tmpl *dfg.Graph, width int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		pc.lru.MoveToFront(el)
		el.Value.(*planEntry).tmpl = tmpl
		return
	}
	el := pc.lru.PushFront(&planEntry{key: key, tmpl: tmpl, width: width})
	pc.byKey[key] = el
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.byKey, back.Value.(*planEntry).key)
	}
}

// record returns the region's history, most recently used first; with
// create set a region seen for the first time gets one, and the least
// recently used is dropped past maxTrackedRegions. The caller holds mu.
func (pc *PlanCache) record(region string, create bool) *regionStats {
	if el, ok := pc.stats[region]; ok {
		pc.statsLRU.MoveToFront(el)
		return el.Value.(*regionStats)
	}
	if !create {
		return nil
	}
	st := &regionStats{key: region}
	pc.stats[region] = pc.statsLRU.PushFront(st)
	for pc.statsLRU.Len() > maxTrackedRegions {
		back := pc.statsLRU.Back()
		pc.statsLRU.Remove(back)
		delete(pc.stats, back.Value.(*regionStats).key)
	}
	return st
}

// region returns a copy of what is remembered about a region (the zero
// value for one never seen).
func (pc *PlanCache) region(region string) regionStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st := pc.record(region, false); st != nil {
		return *st
	}
	return regionStats{}
}

// memoInputs remembers what a freshly lifted region reads. ri is
// immutable from here on.
func (pc *PlanCache) memoInputs(region string, ri *regionInputs) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.record(region, true).inputs = ri
}

// noteRun records a measured region execution, the history the width
// rule reads for a region whose bytes it cannot state.
func (pc *PlanCache) noteRun(region string, wall time.Duration) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := pc.record(region, true)
	st.runs++
	if st.runs == 1 {
		st.ewmaWall = wall
	} else {
		st.ewmaWall = (3*st.ewmaWall + wall) / 4
	}
}

// noteWidth counts a region's final width decision.
func (pc *PlanCache) noteWidth(wp dfg.WidthPlan) {
	pc.mu.Lock()
	pc.widths.Note(wp)
	pc.mu.Unlock()
}

// Stats snapshots the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:    pc.hits,
		Misses:  pc.misses,
		Entries: pc.lru.Len(),
		Lifts:   pc.lifts.Load(),
		Regions: pc.statsLRU.Len(),
		Widths:  pc.widths,
	}
}

// optimizeAt is Optimize at an explicit width (the per-run effective
// width the scheduler granted), leaving the compiler's configured width
// untouched.
func (c *Compiler) optimizeAt(g *dfg.Graph, width int) {
	c.countPairs(g)
	opts := c.dfgOptions()
	opts.Width = width
	dfg.Apply(g, opts)
}

// PlanRegion is the public planning entry point: resolve a region of
// pre-expanded stages to an executable graph at the given width,
// through the plan cache when one is configured. The boolean reports a
// cache hit.
func (c *Compiler) PlanRegion(stages []Stage, width int) (*dfg.Graph, bool, error) {
	return c.planRegion(stages, regionKey(stages), width)
}

// planRegion plans a region at exactly the width given.
func (c *Compiler) planRegion(stages []Stage, region string, width int) (g *dfg.Graph, hit bool, err error) {
	return c.planLifted(stages, region, dfg.WidthPlan{Asked: width, Planned: width}, nil)
}

// planLifted resolves one region to an executable graph at the decided
// width: a clone of the cached template on a hit, or a fresh
// compile+optimize (cached for next time) on a miss, which starts from
// lifted when regionWidth already had to lift the region. The decision
// is stamped on the graph returned, not on the template: two runs of one
// template may have different reasons for the same width. The returned
// graph is private to the caller.
func (c *Compiler) planLifted(stages []Stage, region string, wp dfg.WidthPlan, lifted *dfg.Graph) (g *dfg.Graph, hit bool, err error) {
	var key string
	if c.Plans != nil {
		key = c.planKey(region, wp.Planned)
		if tmpl, ok := c.Plans.lookup(key); ok {
			g = tmpl.Clone()
			g.Width = wp
			return g, true, nil
		}
	}
	if g, err = c.compileAt(stages, wp, lifted); err != nil {
		return nil, false, err
	}
	if c.Plans != nil {
		c.Plans.insert(key, g.Clone(), wp.Planned)
	}
	return g, false, nil
}

// compileAt is a plan-cache miss: lift the region (unless regionWidth
// already had to), then optimize and distribute it at the decided width.
func (c *Compiler) compileAt(stages []Stage, wp dfg.WidthPlan, lifted *dfg.Graph) (g *dfg.Graph, err error) {
	if g = lifted; g == nil {
		if g, err = c.lift(stages); err != nil {
			return nil, err
		}
	}
	c.optimizeAt(g, wp.Planned)
	c.distribute(g, wp.Planned)
	g.Width = wp
	return g, nil
}

// runRegion is the one path from a region to its bytes: plan it at the
// decided width, count the decision, let the caller count the verdict
// (planned sees the private graph before it runs), and execute exactly
// that graph in the job's environment — every decision about how it runs
// is already on it. profile runs it through the profiling executor
// instead (Interp.Measure). The returned wall is execution only, not
// planning; it is what sizes the region next time should its bytes not
// be statable then.
func (c *Compiler) runRegion(ctx context.Context, stages []Stage, region string, wp dfg.WidthPlan, lifted *dfg.Graph, stdio runtime.StdIO, job runtime.Config, profile bool, planned func(g *dfg.Graph, hit bool)) (*dfg.Graph, *runtime.Result, time.Duration, error) {
	g, hit, err := c.planLifted(stages, region, wp, lifted)
	if err != nil {
		return nil, nil, 0, err
	}
	if c.Plans != nil {
		c.Plans.noteWidth(wp)
	}
	planned(g, hit)
	job.Remote = c.Workers
	job.DisableFusion = c.Opts.DisableFusion
	run := runtime.Execute
	if profile {
		run = runtime.Profile
	}
	start := time.Now()
	res, err := run(ctx, g, c.Cmds, stdio, job)
	if err != nil {
		return g, res, 0, err
	}
	wall := time.Since(start)
	if c.Plans != nil && c.planWidth() && !profile {
		c.Plans.noteRun(region, wall)
	}
	return g, res, wall, nil
}

// isUser reports whether name's entry came through the extension API.
func (c *Compiler) isUser(name string) bool {
	e, _ := c.Cmds.Entry(name)
	return e.User
}

// distribute partitions a freshly planned region across the attached
// worker pool (no-op without one). User entries never ship: they exist
// only in the coordinator's registry.
func (c *Compiler) distribute(g *dfg.Graph, width int) {
	if c.Workers == nil || width < 2 {
		return
	}
	names := c.Workers.WorkerNames()
	if len(names) == 0 {
		return
	}
	dfg.Distribute(g, dfg.DistOptions{
		Workers:    names,
		FileRanges: c.Workers.SharedFS(),
		Shippable:  func(name string) bool { return !c.isUser(name) },
		// Salt plan-cache keys with the coordinator's registry
		// generation: re-registering a command produces fresh keys, so
		// workers can never serve a plan cached under old semantics.
		KeySalt: "reg" + strconv.FormatUint(c.Cmds.Generation(), 10),
	})
}
