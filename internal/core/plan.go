package core

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"time"

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
// options that shape the optimized graph (effective width, split flags
// and mode, eagerness, fusion, aggregation fan-in). Keying on expanded
// argv makes env-dependent regions miss exactly when their argv
// changes: `grep "$PAT" f` re-plans when PAT changes and hits when it
// does not. Per-run state that planning never reads — the variable
// environment snapshot, the working directory, the stdio bindings — is
// deliberately outside the key; it binds at instantiation/execution.

// regionKey canonically fingerprints an expanded region. Every element
// is length-prefixed so no argv or path can collide across boundaries.
// This runs on every region execution (hit or miss), so it avoids fmt.
func regionKey(stages []Stage) string {
	var b []byte
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
// consults, at the given effective width, plus the annotation and
// command registry generations. The generations make re-registration
// bust the cache by construction: registering a command, kernel,
// aggregator, or annotation bumps the registry's globally unique
// generation, so a cached plan built against the old registries can
// never be served for the new ones — even when a cache outlives a
// registration or is shared across compiler snapshots.
func (c *Compiler) planKey(region string, width int) string {
	o := c.Opts
	b := make([]byte, 0, len(region)+72)
	b = append(b, 'g')
	b = strconv.AppendUint(b, c.Annot.Generation(), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, c.Cmds.Generation(), 10)
	b = append(b, 'w')
	b = strconv.AppendInt(b, int64(width), 10)
	b = appendBool(b, o.Split)
	b = appendBool(b, o.InputAwareSplit)
	b = strconv.AppendInt(b, int64(o.SplitMode), 10)
	b = strconv.AppendInt(b, int64(o.Eager), 10)
	b = strconv.AppendInt(b, int64(o.BlockingEagerBytes), 10)
	b = appendBool(b, o.DisableFusion)
	b = strconv.AppendInt(b, int64(o.AggFanIn), 10)
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

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '|', '1')
	}
	return append(b, '|', '0')
}

// jitSequentialWall is the measured region wall time below which the
// width hint degrades a region to sequential execution: regions this
// short are dominated by parallelization overhead (split/merge/agg
// processes), so the measured-profile loop plans them at width 1.
const jitSequentialWall = 300 * time.Microsecond

// planEntry is one cached template plus the region's measured history.
type planEntry struct {
	key   string
	tmpl  *dfg.Graph
	width int
}

// regionStats accumulates a region's measured executions (the JIT loop:
// RegionProfiles were collected so planning could consult them).
type regionStats struct {
	runs int64
	// ewmaWall is an exponentially-weighted moving average of region
	// wall time (alpha 1/4).
	ewmaWall time.Duration
}

// PlanCacheStats is a point-in-time cache snapshot.
type PlanCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	// SeqHints counts instantiations where measured history degraded
	// the region to sequential width.
	SeqHints int64 `json:"seq_hints"`
}

// PlanCache is an LRU of planned+optimized region templates plus
// per-region measured stats. All methods are safe for concurrent use;
// templates are immutable once inserted (lookups clone).
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	byKey   map[string]*list.Element // planKey -> *planEntry element
	lru     list.List
	stats   map[string]*regionStats // regionKey -> history
	hits    int64
	misses  int64
	seqHint int64
}

// maxTrackedRegions bounds the measured-history map independently of
// the plan LRU (histories are tiny; plans hold whole graphs).
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
		stats: map[string]*regionStats{},
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

// noteRun records a measured region execution for future width hints.
func (pc *PlanCache) noteRun(region string, wall time.Duration) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st, ok := pc.stats[region]
	if !ok {
		if len(pc.stats) >= maxTrackedRegions {
			return
		}
		st = &regionStats{}
		pc.stats[region] = st
	}
	st.runs++
	if st.runs == 1 {
		st.ewmaWall = wall
	} else {
		st.ewmaWall = (3*st.ewmaWall + wall) / 4
	}
}

// widthHint picks the effective width for a region given its measured
// history: regions whose smoothed wall time sits under
// jitSequentialWall run sequentially (parallelization overhead
// dominates); everything else keeps the requested width.
func (pc *PlanCache) widthHint(region string, want int) int {
	if want <= 1 {
		return want
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st, ok := pc.stats[region]
	if !ok || st.runs == 0 {
		return want
	}
	if st.ewmaWall < jitSequentialWall {
		pc.seqHint++
		return 1
	}
	return want
}

// Stats snapshots the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:     pc.hits,
		Misses:   pc.misses,
		Entries:  pc.lru.Len(),
		SeqHints: pc.seqHint,
	}
}

// optimizeAt runs the parallelization transformations at an explicit
// width (the per-run effective width the scheduler granted), leaving
// the compiler's configured width untouched.
func (c *Compiler) optimizeAt(g *dfg.Graph, width int) {
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

// planRegion resolves one region to an executable graph at the given
// effective width: a clone of the cached template on a hit, or a fresh
// compile+optimize (cached for next time) on a miss. The returned graph
// is private to the caller.
func (c *Compiler) planRegion(stages []Stage, region string, width int) (g *dfg.Graph, hit bool, err error) {
	if c.Plans == nil {
		g, err = c.CompilePipeline(stages, RegionIO{})
		if err != nil {
			return nil, false, err
		}
		c.optimizeAt(g, width)
		c.distribute(g, width)
		return g, false, nil
	}
	key := c.planKey(region, width)
	if tmpl, ok := c.Plans.lookup(key); ok {
		return tmpl.Clone(), true, nil
	}
	g, err = c.CompilePipeline(stages, RegionIO{})
	if err != nil {
		return nil, false, err
	}
	c.optimizeAt(g, width)
	c.distribute(g, width)
	c.Plans.insert(key, g.Clone(), width)
	return g, false, nil
}

// runRegion is the one path from a region to its bytes: plan it at the
// given width, let the caller count the verdict (planned sees the private
// graph before it runs), and execute exactly that graph in the job's
// environment — every decision about how it runs is already on it.
func (c *Compiler) runRegion(ctx context.Context, stages []Stage, region string, width int, stdio runtime.StdIO, job runtime.Config, planned func(g *dfg.Graph, hit bool)) (*dfg.Graph, *runtime.Result, error) {
	g, hit, err := c.planRegion(stages, region, width)
	if err != nil {
		return nil, nil, err
	}
	planned(g, hit)
	job.Remote = c.Workers
	job.DisableFusion = c.Opts.DisableFusion
	run := runtime.Execute
	if c.Opts.MeasureMode {
		run = runtime.Profile
	}
	res, err := run(ctx, g, c.Cmds, stdio, job)
	return g, res, err
}

// distribute partitions a freshly planned region across the attached
// worker pool (no-op without one). Custom user commands never ship:
// they exist only in the coordinator's registry.
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
		Shippable:  func(name string) bool { return !c.Cmds.IsCustom(name) },
		// Salt plan-cache keys with the coordinator's registry
		// generation: re-registering a command produces fresh keys, so
		// workers can never serve a plan cached under old semantics.
		KeySalt: "reg" + strconv.FormatUint(c.Cmds.Generation(), 10),
	})
}
