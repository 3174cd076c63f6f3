package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// runInterp executes src on a fresh interpreter over compiler c,
// returning stdout and the interpreter's stats.
func runInterp(t *testing.T, c *Compiler, src, stdin, dir string) (string, InterpStats) {
	t.Helper()
	var out bytes.Buffer
	in := NewInterp(c, dir, nil, runtime.StdIO{Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: os.Stderr})
	if _, err := in.RunScript(context.Background(), src); err != nil {
		t.Fatalf("script failed: %v\nscript: %s", err, src)
	}
	return out.String(), in.Stats
}

func TestPlanCacheHitOutputIdentical(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte(corpus(400)), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `for i in 1 2 3 4 5; do cut -d ' ' -f1 a.txt | grep o | sort | uniq -c | head -n 4; done`

	cold := NewCompiler(DefaultOptions(4))
	cold.Plans = nil // every region compiles cold
	wantOut, wantStats := runInterp(t, cold, src, "", dir)

	cached := NewCompiler(DefaultOptions(4))
	gotOut, gotStats := runInterp(t, cached, src, "", dir)

	if gotOut != wantOut {
		t.Errorf("cached output diverged from cold compile:\n--- cold:\n%s--- cached:\n%s", clip(wantOut), clip(gotOut))
	}
	if gotStats.PlanMisses != 1 || gotStats.PlanHits != 4 {
		t.Errorf("cache stats: hits=%d misses=%d, want 4/1", gotStats.PlanHits, gotStats.PlanMisses)
	}
	if wantStats.PlanHits != 0 {
		t.Errorf("cold compiler reported hits: %+v", wantStats)
	}
	// Graph shape survives the cache round-trip.
	if gotStats.TotalNodes != wantStats.TotalNodes || gotStats.MaxNodes != wantStats.MaxNodes {
		t.Errorf("node stats diverged: cold %+v cached %+v", wantStats, gotStats)
	}
	if s := cached.Plans.Stats(); s.Hits != 4 || s.Entries != 1 {
		t.Errorf("cache-level stats = %+v", s)
	}
}

// TestPlanKeyIncludesRegistryGeneration: registering a command or an
// annotation record must invalidate cached plans by construction, even
// when the cache object itself survives — the plan key carries the
// registry's generation.
func TestPlanKeyIncludesRegistryGeneration(t *testing.T) {
	c := NewCompiler(DefaultOptions(4))
	stages := []Stage{{Name: "grep", Args: []string{"x"}}, {Name: "wc", Args: []string{"-l"}}}

	if _, hit, err := c.PlanRegion(stages, 4); err != nil || hit {
		t.Fatalf("first plan: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.PlanRegion(stages, 4); err != nil || !hit {
		t.Fatalf("second plan should hit: hit=%v err=%v", hit, err)
	}

	// A command registration bumps the registry generation: same cache,
	// same region, but the stale template must not be served.
	c.Cmds.Register("grep", func(ctx *commands.Context) error { return nil })
	if _, hit, err := c.PlanRegion(stages, 4); err != nil || hit {
		t.Fatalf("plan after command registration should miss: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.PlanRegion(stages, 4); err != nil || !hit {
		t.Fatalf("re-plan should hit again: hit=%v err=%v", hit, err)
	}

	// Same for annotation registrations.
	rec, err := annot.ParseRecord(`grep { | _ => (E, [], []) }`)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := c.Cmds.Entry("grep")
	e.Record = rec
	c.Cmds.Set("grep", e)
	if _, hit, err := c.PlanRegion(stages, 4); err != nil || hit {
		t.Fatalf("plan after annotation registration should miss: hit=%v err=%v", hit, err)
	}
}

func TestPlanCacheEnvDependentArgvMisses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte(corpus(100)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(DefaultOptions(4))
	// The loop variable lands in argv, so every iteration re-plans.
	_, stats := runInterp(t, c, `for p in quick lazy fox; do grep $p a.txt | wc -l; done`, "", dir)
	if stats.PlanHits != 0 || stats.PlanMisses != 3 {
		t.Errorf("env-dependent argv: hits=%d misses=%d, want 0/3", stats.PlanHits, stats.PlanMisses)
	}
	// Re-running the same values now hits.
	_, stats = runInterp(t, c, `for p in quick lazy fox; do grep $p a.txt | wc -l; done`, "", dir)
	if stats.PlanHits != 3 || stats.PlanMisses != 0 {
		t.Errorf("re-run: hits=%d misses=%d, want 3/0", stats.PlanHits, stats.PlanMisses)
	}
}

func TestPlanCacheKeyIncludesRedirsAndWidth(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte(corpus(50)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(DefaultOptions(4))
	_, stats := runInterp(t, c, "sort a.txt > o1.txt\nsort a.txt > o2.txt\nsort a.txt > o1.txt", "", dir)
	// Distinct redirect targets are distinct plans; the repeat hits.
	if stats.PlanMisses != 2 || stats.PlanHits != 1 {
		t.Errorf("redir keying: hits=%d misses=%d, want 1/2", stats.PlanHits, stats.PlanMisses)
	}
	// A width change re-plans rather than reusing the width-4 template.
	c.Opts.Width = 2
	_, stats = runInterp(t, c, "sort a.txt > o1.txt", "", dir)
	if stats.PlanMisses != 1 {
		t.Errorf("width change should miss, got %+v", stats)
	}
}

// TestPlanCacheControlPlaneSpeedup: a 1000-iteration loop of a fixed
// pipeline plans once and hits the cache every later iteration. The
// cold/cached time ratio is logged, not asserted — wall-clock ratios
// flake under package-parallel load; the loop-control workload in
// BENCHMARK.json guards the speed.
func TestPlanCacheControlPlaneSpeedup(t *testing.T) {
	stages := fixedPipelineStages()
	const iters = 1000

	cold := NewCompiler(DefaultOptions(8))
	cold.Plans = nil
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := cold.planRegion(stages, regionKey(stages), 8); err != nil {
			t.Fatal(err)
		}
	}
	coldDur := time.Since(start)

	cached := NewCompiler(DefaultOptions(8))
	start = time.Now()
	for i := 0; i < iters; i++ {
		rk := regionKey(stages)
		if _, _, err := cached.planRegion(stages, rk, 8); err != nil {
			t.Fatal(err)
		}
	}
	cachedDur := time.Since(start)

	speedup := float64(coldDur) / float64(cachedDur)
	t.Logf("control plane: cold %v, cached %v (%.1fx) over %d iterations",
		coldDur, cachedDur, speedup, iters)
	if s := cached.Plans.Stats(); s.Hits != iters-1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v", s)
	}
}

// fixedPipelineStages is the benchmark region: a realistic 4-stage
// pipeline (the loop body of `for f in *; do cut | grep | sort | wc;
// done`), pre-expanded.
func fixedPipelineStages() []Stage {
	return []Stage{
		{Name: "cut", Args: []string{"-d", " ", "-f1"}},
		{Name: "grep", Args: []string{"o"}},
		{Name: "sort", Args: nil},
		{Name: "wc", Args: []string{"-l"}},
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := NewPlanCache(2)
	c := NewCompiler(DefaultOptions(2))
	c.Plans = pc
	mk := func(pat string) []Stage {
		return []Stage{{Name: "grep", Args: []string{pat}}, {Name: "wc", Args: []string{"-l"}}}
	}
	for _, pat := range []string{"a", "b", "c"} {
		s := mk(pat)
		if _, _, err := c.planRegion(s, regionKey(s), 2); err != nil {
			t.Fatal(err)
		}
	}
	if s := pc.Stats(); s.Entries != 2 {
		t.Errorf("entries = %d, want 2 (LRU cap)", s.Entries)
	}
	// "a" was evicted; "c" still resident.
	sa, sc := mk("a"), mk("c")
	if _, hit, _ := c.planRegion(sc, regionKey(sc), 2); !hit {
		t.Error("most-recent entry should hit")
	}
	if _, hit, _ := c.planRegion(sa, regionKey(sa), 2); hit {
		t.Error("evicted entry should miss")
	}
}

// TestWidthHintDegradesTinyRegions: a region known only by its history
// runs sequentially while its measured wall is too short to pay a second
// replica back, and at the ceiling again once its wall grows.
func TestWidthHintDegradesTinyRegions(t *testing.T) {
	c := NewCompiler(plannedOptions(8))
	stages := []Stage{{Name: "seq", Args: []string{"1", "9"}}}
	rk := regionKey(stages)
	width := func() int {
		wp, _, _, err := c.regionWidth(stages, rk, 8, nil, RegionInput{})
		if err != nil {
			t.Fatal(err)
		}
		return wp.Planned
	}
	if w := width(); w != 8 {
		t.Errorf("no history: width = %d, want 8", w)
	}
	c.Plans.noteRun(rk, 50*time.Microsecond)
	if w := width(); w != 1 {
		t.Errorf("tiny region: width = %d, want 1", w)
	}
	// A large measured wall restores the requested width (EWMA moves).
	for i := 0; i < 8; i++ {
		c.Plans.noteRun(rk, 50*time.Millisecond)
	}
	if w := width(); w != 8 {
		t.Errorf("large region: width = %d, want 8", w)
	}
}

// --- satellite coverage -------------------------------------------------

func TestBareRedirectionCreatesFiles(t *testing.T) {
	dir := t.TempDir()
	// Creation.
	runScript(t, Options{Width: 1}, "> fresh.txt", "", dir, nil)
	if fi, err := os.Stat(filepath.Join(dir, "fresh.txt")); err != nil || fi.Size() != 0 {
		t.Fatalf("bare > did not create: %v", err)
	}
	// Truncation of existing content.
	full := filepath.Join(dir, "full.txt")
	if err := os.WriteFile(full, []byte("content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runScript(t, Options{Width: 1}, "> full.txt", "", dir, nil)
	if data, _ := os.ReadFile(full); len(data) != 0 {
		t.Fatalf("bare > did not truncate, %d bytes left", len(data))
	}
	// Append creates but preserves.
	if err := os.WriteFile(full, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runScript(t, Options{Width: 1}, ">> full.txt\n>> appended.txt", "", dir, nil)
	if data, _ := os.ReadFile(full); string(data) != "keep\n" {
		t.Fatalf("bare >> clobbered content: %q", data)
	}
	if _, err := os.Stat(filepath.Join(dir, "appended.txt")); err != nil {
		t.Fatalf("bare >> did not create: %v", err)
	}
	// Missing input target fails with status 1 (not a fatal error).
	_, code, err := runScriptCode(t, Options{Width: 1}, "< missing.txt", "", dir, nil)
	if err != nil || code != 1 {
		t.Errorf("bare < missing: code=%d err=%v, want 1/nil", code, err)
	}
	// Variable expansion in the target.
	runScript(t, Options{Width: 1}, "name=var.txt; > $name", "", dir, nil)
	if _, err := os.Stat(filepath.Join(dir, "var.txt")); err != nil {
		t.Fatalf("expanded bare redir target: %v", err)
	}
}

func TestAssignmentPrefixScopedToCommand(t *testing.T) {
	// The prefix does not leak into the script environment afterward.
	got := runScript(t, Options{Width: 1}, "FOO=outer; FOO=inner true; echo [$FOO]", "", "", nil)
	if got != "[outer]\n" {
		t.Errorf("prefix leaked: %q", got)
	}
	// A previously-unset variable is unset again afterward.
	got = runScript(t, Options{Width: 1}, "BAR=tmp true; echo [$BAR]", "", "", nil)
	if got != "[]\n" {
		t.Errorf("prefix left residue: %q", got)
	}
	// POSIX: the prefix is not visible to the command's own argv
	// expansion.
	got = runScript(t, Options{Width: 1}, "BAZ=v echo [$BAZ]", "", "", nil)
	if got != "[]\n" {
		t.Errorf("prefix visible to own expansion: %q", got)
	}
	// Prefixes on pipeline stages restore too.
	got = runScript(t, Options{Width: 1}, "P=x; P=y echo stage | cat; echo [$P]", "", "", nil)
	if got != "stage\n[x]\n" {
		t.Errorf("pipeline prefix: %q", got)
	}
	// Lone assignments still persist (not prefixes).
	got = runScript(t, Options{Width: 1}, "KEEP=yes; echo [$KEEP]", "", "", nil)
	if got != "[yes]\n" {
		t.Errorf("lone assignment: %q", got)
	}
}

func TestCompoundPipelineStreamsAndPropagates(t *testing.T) {
	// Compound stages (subshells in a pipeline) stream concurrently.
	got := runScript(t, Options{Width: 1}, "( echo a; echo b ) | wc -l", "", "", nil)
	if strings.TrimSpace(got) != "2" {
		t.Errorf("compound pipeline = %q", got)
	}
	// Exit status comes from the last stage.
	_, code, err := runScriptCode(t, Options{Width: 1}, "( echo x ) | grep nomatch", "", "", nil)
	if err != nil || code != 1 {
		t.Errorf("compound status: code=%d err=%v", code, err)
	}
	// Early-exit downstream terminates an unbounded upstream: with
	// buffered staging this would run the upstream to completion (or
	// forever); with pipes it finishes promptly.
	type result struct {
		out  string
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		out, code, err := runScriptCode(t, Options{Width: 1},
			"( x=0; while true; do echo line $x; done ) | head -n 3", "", "", nil)
		done <- result{out, code, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("early-exit pipeline failed: %v", r.err)
		}
		if strings.Count(r.out, "\n") != 3 {
			t.Errorf("early exit output = %q", r.out)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("compound pipeline with early-exit consumer did not terminate")
	}
	// Compound stage negation still applies.
	_, code, err = runScriptCode(t, Options{Width: 1}, "! ( echo x ) | grep nomatch", "", "", nil)
	if err != nil || code != 0 {
		t.Errorf("negated compound: code=%d err=%v", code, err)
	}
}

func TestNegatedCompoundKeepsEnvironment(t *testing.T) {
	// `!` is not a subshell: assignments inside a lone negated brace
	// group persist (POSIX), even though the parser routes it through
	// the compound-pipeline path.
	got := runScript(t, Options{Width: 1}, "! { X=1; }; echo [$X]", "", "", nil)
	if got != "[1]\n" {
		t.Errorf("negated brace group dropped assignment: %q", got)
	}
}

func TestBackgroundJobEnvSnapshotRace(t *testing.T) {
	// A background pipeline snapshots the environment while the
	// foreground installs and restores command-scoped prefixes: must
	// not corrupt the shared Env (run under -race).
	src := `for i in 1 2 3 4 5 6 7 8; do
 grep quick a.txt | wc -l &
 X=$i grep lazy a.txt | wc -l
done
wait`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte(corpus(200)), 0o644); err != nil {
		t.Fatal(err)
	}
	// Background and foreground regions write stdout concurrently (as
	// in a real shell), so the capture buffer must be synchronized.
	out := &syncWriter{}
	c := NewCompiler(Options{Width: 2, Preset: SplitNoEager})
	in := NewInterp(c, dir, nil, runtime.StdIO{Stdin: strings.NewReader(""), Stdout: out, Stderr: os.Stderr})
	if _, err := in.RunScript(context.Background(), src); err != nil {
		t.Fatal(err)
	}
}

// syncWriter is a mutex-guarded buffer for tests whose scripts write
// stdout from concurrent jobs.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestBackgroundJobExitPropagation(t *testing.T) {
	// `wait` surfaces the background job's exit code.
	_, code, err := runScriptCode(t, Options{Width: 1}, "grep nomatch </dev/null & wait", "", "", nil)
	if err != nil || code != 1 {
		t.Errorf("wait after failing job: code=%d err=%v, want 1/nil", code, err)
	}
	_, code, err = runScriptCode(t, Options{Width: 1}, "true & wait", "", "", nil)
	if err != nil || code != 0 {
		t.Errorf("wait after succeeding job: code=%d err=%v", code, err)
	}
	_, code, err = runScriptCode(t, Options{Width: 1}, "definitely-not-a-command & wait", "", "", nil)
	if err != nil || code != 127 {
		t.Errorf("wait after a command not found: code=%d err=%v, want 127/nil", code, err)
	}
	// A background job hitting a real error propagates it at script end.
	_, _, err = runScriptCode(t, Options{Width: 1}, "echo $1 &", "", "", nil)
	if err == nil {
		t.Error("background error swallowed")
	}
}

func fixedLoopScript(iters int) string {
	return fmt.Sprintf("for i in $(seq %d); do cut -d ' ' -f1 a.txt | grep o | sort | uniq -c | head -n 3; done", iters)
}

// TestCommutativeConsumerPlanShape pins what absorption buys: a
// commutative pure consumer behind a framed chain takes the chain's
// replicas as its maps' inputs — no order-restoring merge, no barrier
// split — while emission, which has no chunk framing to rely on, still
// plans the barrier split.
func TestCommutativeConsumerPlanShape(t *testing.T) {
	const (
		sortLine = `cat f | tr A-Z a-z | sort`
		wfLine   = `cat f | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`
	)
	shape := func(p *Plan) (nodes, merges, barrierSplits, rrSplits int) {
		t.Helper()
		if len(p.Items) != 1 || p.Items[0].Graph == nil {
			t.Fatalf("not one lifted region: %+v", p.Items)
		}
		for _, n := range p.Items[0].Graph.Nodes {
			nodes++
			switch {
			case n.Kind == dfg.KindMerge:
				merges++
			case n.Kind == dfg.KindSplit && n.Split == dfg.RoundRobinSplit:
				rrSplits++
			case n.Kind == dfg.KindSplit:
				barrierSplits++
			}
		}
		return
	}
	c := NewCompiler(DefaultOptions(2))

	p, err := c.PlanExec(sortLine)
	if err != nil {
		t.Fatal(err)
	}
	if nodes, merges, barriers, rr := shape(p); nodes != 6 || merges != 0 || barriers != 0 || rr != 1 {
		t.Errorf("%s: %d nodes, %d merges, %d barrier splits, %d rr splits; want 6, 0, 0, 1\n%s",
			sortLine, nodes, merges, barriers, rr, p.Items[0].Graph.Dump())
	}

	// sort | uniq -c is one commutative count stage, which absorbs the
	// merge; sort -rn reads its aggregate's one stream and keeps a split
	// of its own, a round-robin one: no barrier is left.
	if p, err = c.PlanExec(wfLine); err != nil {
		t.Fatal(err)
	}
	if nodes, merges, barriers, _ := shape(p); nodes != 10 || merges != 0 || barriers != 0 {
		t.Errorf("%s: %d nodes, %d merges, %d barrier splits; want 10, 0, 0\n%s",
			wfLine, nodes, merges, barriers, p.Items[0].Graph.Dump())
	}

	if p, err = c.Plan(sortLine); err != nil {
		t.Fatal(err)
	}
	if _, merges, barriers, rr := shape(p); merges != 0 || rr != 0 || barriers == 0 {
		t.Errorf("emission plan: %d merges, %d rr splits, %d barrier splits; want only barrier splits\n%s",
			merges, rr, barriers, p.Items[0].Graph.Dump())
	}
}

// TestNewlineRewritingTrIsNotStateless: a tr that deletes or rewrites
// newlines glues lines across chunk boundaries, so its replicas' chunks
// are not line-aligned and nothing line-oriented may read them directly
// — neither a framed stateless successor nor a commutative consumer's
// maps behind an absorbed merge. annot demotes such a tr to pure; the
// input spans several round-robin chunks so a wrong plan shows.
func TestNewlineRewritingTrIsNotStateless(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte(corpus(20000)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`cat f | tr -d '\n' | sort`,
		`cat f | tr -d '\n' | wc -w`,
		`cat f | tr -d '\n' | grep -c fox`,
		`cat f | tr '\n' ' ' | sort`,
		`cat f | tr '\n' ' ' | grep fox`,
		`cat f | tr a-z A-Z | tr -d '\n' | cut -c1-5 | sort`,
		`cat f | tr -s '\n' | sort`,
	} {
		seqVsPar(t, src, "", dir, nil)
	}
}

// TestPositionalSedIsNotStateless: a sed script that reads a line's
// position in the whole input (a numeric address, q) must not be
// replicated over round-robin chunks, in whichever -e it sits — every
// replica would apply "line 1" to its own first line. The verdict is
// sed's own parser's, over all the scripts of the argv; the input spans
// several chunks so a wrong plan shows.
func TestPositionalSedIsNotStateless(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte(corpus(20000)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`cat f | sed -e '1d' -e 's/9/X/'`,
		`cat f | sed -e '5q' -e 's/9/X/'`,
		`cat f | sed -e 's/9/X/' -e '1d'`,
		`cat f | sed -e 's/9/X/' -e '/fox/d' | wc -l`, // a line map in two scripts still replicates
	} {
		seqVsPar(t, src, "", dir, nil)
	}

	// An address range, or $, reads the line's position just the same:
	// the bytes are width 1's under every configuration, and the sed that
	// carries one is never replicated.
	const ranged = `cat f | sed '2,3d;s/a/b/'`
	for _, src := range []string{
		ranged,
		`cat f | sed -n '2,$p'`,
		`cat f | sed -e '3,19990s/fox/FOX/' -e '$d'`,
		`cat f | sed -n '$p'`,
		`cat f | sed '19999,$y/abc/ABC/' | wc -c`,
	} {
		seqVsPar(t, src, "", dir, nil)
		want := runScript(t, DefaultOptions(1), src, "", dir, nil)
		for _, w := range []int{2, 4} {
			if got := runScript(t, DefaultOptions(w), src, "", dir, nil); got != want {
				t.Errorf("%s at width %d differs from width 1:\n%s\n-- want --\n%s", src, w, clip(got), clip(want))
			}
		}
	}
	for _, argv := range [][]string{{"2,3d;s/a/b/"}, {"-n", "2,$p"}, {"$d"}} {
		if class := commands.Std().Classify("sed", argv).Class; class.DataParallelizable() {
			t.Errorf("sed %q classifies %v: an address range or $ is not a line map", argv, class)
		}
	}
	p, err := NewCompiler(DefaultOptions(4)).PlanExec(ranged)
	if err != nil || len(p.Items) != 1 || p.Items[0].Graph == nil {
		t.Fatalf("%s: not one lifted region: %v", ranged, err)
	}
	seds := 0
	for _, n := range p.Items[0].Graph.Nodes {
		if n.Name == "sed" {
			seds++
		}
	}
	if seds != 1 {
		t.Errorf("%s: %d sed nodes at width 4, want 1\n%s", ranged, seds, p.Items[0].Graph.Dump())
	}
}

// TestHeadTailSpellingsAgreeAtEveryWidth: every spelling of a line count
// that head and tail accept at width 1 they accept as aggregators too —
// the aggregate is the command, reading the count through the one parser
// — and the forms that are not "K lines from one end" plan without an
// aggregator at all.
func TestHeadTailSpellingsAgreeAtEveryWidth(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte(corpus(20000)), 0o644); err != nil {
		t.Fatal(err)
	}
	hasAgg := func(src string) bool {
		t.Helper()
		p, err := NewCompiler(DefaultOptions(4)).PlanExec(src)
		if err != nil || len(p.Items) != 1 || p.Items[0].Graph == nil {
			t.Fatalf("%s: not one lifted region: %v", src, err)
		}
		for _, n := range p.Items[0].Graph.Nodes {
			if n.Kind == dfg.KindAgg {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		stage string
		agg   bool // takes K lines from one end: planned as maps + aggregate
	}{
		{"head -5", true}, {"head -n5", true}, {"head -n 5", true},
		{"tail -3", true}, {"tail -n3", true}, {"tail -n 3", true},
		{"tail -n +39990", false}, {"head -c 40", false}, {"tail -c 40", false},
	} {
		// Two inputs: head is only ever parallelized over inputs that are
		// already separate (it stops early; see dfg's trySplit).
		src := "cat f f | tr a-z A-Z | " + tc.stage
		want, code, err := runScriptCode(t, Options{Width: 1}, src, "", dir, nil)
		if err != nil || code != 0 {
			t.Fatalf("%s at width 1: exit %d, %v", src, code, err)
		}
		got, code, err := runScriptCode(t, DefaultOptions(4), src, "", dir, nil)
		if err != nil || code != 0 || got != want {
			t.Errorf("%s at width 4: exit %d, %v\n--- width 1:\n%s--- width 4:\n%s", src, code, err, clip(want), clip(got))
		}
		if hasAgg(src) != tc.agg {
			t.Errorf("%s: aggregator planned = %v, want %v", src, !tc.agg, tc.agg)
		}
	}
}

// TestUniqCountKeepsBlankLinesAtEveryWidth: an empty line is a record
// like any other. `sort | uniq -c` over input with blank lines prints
// their row first, and pash-agg-uniq must carry it through the
// aggregation tree at every width.
func TestUniqCountKeepsBlankLinesAtEveryWidth(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	values := []string{"a", "b", "c", "", ""}
	counts := map[string]int{}
	var sb strings.Builder
	for i := 0; i < 40000; i++ {
		v := values[rng.Intn(len(values))]
		counts[v]++
		sb.WriteString(v + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	counted := ""
	for _, v := range []string{"", "a", "b", "c"} {
		counted += fmt.Sprintf("%7d %s\n", counts[v], v)
	}
	for src, want := range map[string]string{
		"cat f | sort | uniq -c": counted,
		"cat f | sort | uniq":    "\na\nb\nc\n",
	} {
		for _, width := range []int{1, 2, 4} {
			got, code, err := runScriptCode(t, DefaultOptions(width), src, "", dir, nil)
			if err != nil || code != 0 || got != want {
				t.Errorf("%s at width %d: exit %d, %v\n--- want:\n%s--- got:\n%s", src, width, code, err, want, got)
			}
		}
	}
}
