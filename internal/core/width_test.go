package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/shell"
)

// plannedOptions is what the pash and pash-serve binaries run with.
func plannedOptions(width int) Options { return Options{Width: width, Preset: Planned} }

// sparseFile creates a file that stats as size bytes.
func sparseFile(tb testing.TB, path string, size int64) {
	tb.Helper()
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.Truncate(path, size); err != nil {
		tb.Fatal(err)
	}
}

// TestRegionWidthRule pins the one rule: width = stated work over the
// per-replica break-even, from the bytes the planner can stat, else the
// region's history, else the ceiling.
func TestRegionWidthRule(t *testing.T) {
	const KiB, MiB = 1 << 10, 1 << 20
	dir, outside := t.TempDir(), t.TempDir()
	for name, size := range map[string]int64{
		"4k.txt": 4 * KiB, "512k.txt": 512 * KiB, "1m-1.txt": MiB - 1, "1m.txt": MiB, "3m.txt": 3 * MiB, "64m.txt": 64 * MiB,
	} {
		sparseFile(t, filepath.Join(dir, name), size)
	}
	sparseFile(t, filepath.Join(outside, "big.txt"), 64*MiB)

	cutGrep := func(file string) []Stage {
		return []Stage{{Name: "cut", Args: []string{"-d", " ", "-f1", file}}, {Name: "grep", Args: []string{"-c", "o"}}}
	}
	grepStdin := []Stage{{Name: "tr", Args: []string{"A-Z", "a-z"}}, {Name: "grep", Args: []string{"-c", "o"}}}
	fileAt := func(name string, off int64) io.Reader {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return f
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()

	for _, tc := range []struct {
		name    string
		stages  []Stage
		asked   int
		stdin   io.Reader
		jail    bool
		planned int
		reason  dfg.WidthReason
		measure int64
	}{
		// A file operand, either side of the break-even, several ceilings.
		{"4 KB operand", cutGrep("4k.txt"), 2, nil, false, 1, dfg.WidthInput, 4 * KiB},
		{"4 KB operand, ceiling 8", cutGrep("4k.txt"), 8, nil, false, 1, dfg.WidthInput, 4 * KiB},
		{"512 KB operand", cutGrep("512k.txt"), 2, nil, false, 1, dfg.WidthInput, 512 * KiB},
		{"one byte short of two replicas", cutGrep("1m-1.txt"), 2, nil, false, 1, dfg.WidthInput, MiB - 1},
		{"1 MB operand", cutGrep("1m.txt"), 2, nil, false, 2, dfg.WidthInput, MiB},
		{"3 MB operand, ceiling 8", cutGrep("3m.txt"), 8, nil, false, 6, dfg.WidthInput, 3 * MiB},
		{"64 MB operand, ceiling 8", cutGrep("64m.txt"), 8, nil, false, 8, dfg.WidthInput, 64 * MiB},
		{"absolute path", cutGrep(filepath.Join(dir, "1m.txt")), 4, nil, false, 2, dfg.WidthInput, MiB},
		// Several operands sum; so does an operand plus a sized stdin.
		{"two operands", []Stage{{Name: "cat", Args: []string{"512k.txt", "1m.txt"}}, {Name: "grep", Args: []string{"-c", "o"}}}, 8, nil, false, 3, dfg.WidthInput, MiB + 512*KiB},
		{"operand and stdin", []Stage{{Name: "cat", Args: []string{"512k.txt", "-"}}, {Name: "grep", Args: []string{"-c", "o"}}}, 8, strings.NewReader(strings.Repeat("x", 512*KiB)), false, 2, dfg.WidthInput, MiB},
		// A `< file` redirect is a graph-input file like an operand.
		{"redirect", []Stage{{Name: "grep", Args: []string{"-c", "o"}, Redirs: []Redir{{N: -1, Op: shell.RedirIn, Target: "3m.txt"}}}}, 4, nil, false, 4, dfg.WidthInput, 3 * MiB},
		{"heredoc", []Stage{{Name: "grep", Args: []string{"-c", "o"}, Redirs: []Redir{{N: -1, Op: shell.RedirHeredoc, Body: "foo\nbar\n"}}}}, 4, nil, false, 1, dfg.WidthInput, 8},
		// Stdin: what the reader can say.
		{"regular-file stdin", grepStdin, 4, fileAt("3m.txt", 0), false, 4, dfg.WidthInput, 3 * MiB},
		{"regular-file stdin at an offset", grepStdin, 4, fileAt("3m.txt", 2*MiB+1), false, 1, dfg.WidthInput, MiB - 1},
		{"sized reader", grepStdin, 2, bytes.NewReader(make([]byte, 2*MiB)), false, 2, dfg.WidthInput, 2 * MiB},
		{"small sized reader", grepStdin, 2, strings.NewReader("a few bytes\n"), false, 1, dfg.WidthInput, 12},
		{"no stdin at all", grepStdin, 2, nil, false, 1, dfg.WidthInput, 0},
		{"pipe", grepStdin, 2, pr, false, 2, dfg.WidthUnknown, 0},
		{"unsized reader", grepStdin, 4, struct{ io.Reader }{strings.NewReader("x")}, false, 4, dfg.WidthUnknown, 0},
		// What cannot be stated is unknown, and unknown is assumed large.
		{"missing file", cutGrep("missing.txt"), 2, nil, false, 2, dfg.WidthUnknown, 0},
		{"a directory", cutGrep("."), 2, nil, false, 2, dfg.WidthUnknown, 0},
		{"one operand of two missing", []Stage{{Name: "cat", Args: []string{"4k.txt", "missing.txt"}}, {Name: "grep", Args: []string{"-c", "o"}}}, 2, nil, false, 2, dfg.WidthUnknown, 0},
		// A sandboxed job learns nothing about a path outside its jail:
		// the same verdict whether or not the file is there.
		{"jailed, inside", cutGrep("4k.txt"), 2, nil, true, 1, dfg.WidthInput, 4 * KiB},
		{"jailed, absolute path outside", cutGrep(filepath.Join(outside, "big.txt")), 2, nil, true, 2, dfg.WidthUnknown, 0},
		{"jailed, absolute path outside, absent", cutGrep(filepath.Join(outside, "absent.txt")), 2, nil, true, 2, dfg.WidthUnknown, 0},
		{"jailed, dot-dot outside", cutGrep("../" + filepath.Base(outside) + "/big.txt"), 2, nil, true, 2, dfg.WidthUnknown, 0},
		{"jailed, absolute path inside", cutGrep(filepath.Join(dir, "4k.txt")), 2, nil, true, 2, dfg.WidthUnknown, 0},
		// Bytes are not work for a stage that makes its own data, runs
		// other commands per line, or has effects.
		{"generator", []Stage{{Name: "seq", Args: []string{"1", "200"}}, {Name: "wc", Args: []string{"-l"}}}, 2, nil, false, 2, dfg.WidthUnknown, 0},
		{"xargs over a small list", []Stage{{Name: "cat", Args: []string{"4k.txt"}}, {Name: "xargs", Args: []string{"-n", "1", "curl", "-s"}}, {Name: "grep", Args: []string{"-c", "o"}}}, 8, nil, false, 8, dfg.WidthUnknown, 0},
		{"side effects", []Stage{{Name: "cat", Args: []string{"4k.txt"}}, {Name: "tee", Args: []string{"copy.txt"}}, {Name: "grep", Args: []string{"-c", "o"}}}, 4, nil, false, 4, dfg.WidthUnknown, 0},
		// A ceiling of one has nothing to plan.
		{"ceiling 1", cutGrep("64m.txt"), 1, nil, false, 1, dfg.WidthAsked, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCompiler(plannedOptions(tc.asked))
			in := RegionInput{FS: commands.OSFS{Dir: dir, Jail: tc.jail}, Stdin: tc.stdin}
			wp, lifted, _, err := c.regionWidth(tc.stages, regionKey(tc.stages), tc.asked, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			want := dfg.WidthPlan{Asked: tc.asked, Planned: tc.planned, Reason: tc.reason, Measure: tc.measure}
			if wp != want {
				t.Errorf("planned %v, want %v", wp, want)
			}
			if (lifted == nil) != (tc.asked == 1) {
				t.Errorf("first sight of the region: lifted graph %v", lifted != nil)
			}
			// The second sight decides the same from the memo, lifting nothing.
			before := c.Plans.Stats().Lifts
			if again, lifted, _, _ := c.regionWidth(tc.stages, regionKey(tc.stages), tc.asked, nil, in); again != wp || lifted != nil || c.Plans.Stats().Lifts != before {
				t.Errorf("second decision %v (lifted again: %v), want %v from the memo", again, lifted != nil, wp)
			}
			// Par + Split plans the width it was asked for, whatever the input.
			exact := NewCompiler(DefaultOptions(tc.asked))
			if wp, lifted, _, _ := exact.regionWidth(tc.stages, regionKey(tc.stages), tc.asked, nil, in); wp != (dfg.WidthPlan{Asked: tc.asked, Planned: tc.asked}) || lifted != nil {
				t.Errorf("par+split planned %v, want the asked width untouched", wp)
			}
		})
	}

	t.Run("history", func(t *testing.T) {
		c := NewCompiler(plannedOptions(8))
		stages := []Stage{{Name: "seq", Args: []string{"1", "200"}}, {Name: "wc", Args: []string{"-l"}}}
		rk := regionKey(stages)
		decide := func() dfg.WidthPlan {
			wp, _, _, err := c.regionWidth(stages, rk, 8, nil, RegionInput{})
			if err != nil {
				t.Fatal(err)
			}
			return wp
		}
		if wp := decide(); wp.Reason != dfg.WidthUnknown || wp.Planned != 8 {
			t.Errorf("no history: %v", wp)
		}
		c.Plans.noteRun(rk, 120*time.Microsecond)
		if wp := decide(); wp != (dfg.WidthPlan{Asked: 8, Planned: 1, Reason: dfg.WidthHistory, Measure: int64(120 * time.Microsecond)}) {
			t.Errorf("short history: %v", wp)
		}
		if got := decide().String(); got != "width 1 of 8 (history 120µs)" {
			t.Errorf("decision prints as %q", got)
		}
		for i := 0; i < 12; i++ {
			c.Plans.noteRun(rk, 3*perReplicaWall+perReplicaWall/2)
		}
		if wp := decide(); wp.Reason != dfg.WidthHistory || wp.Planned != 3 {
			t.Errorf("three and a half replicas of measured work: %v", wp)
		}
	})

	t.Run("budget", func(t *testing.T) {
		c := NewCompiler(plannedOptions(8))
		in := RegionInput{FS: commands.OSFS{Dir: dir}}
		// The job's replica cap binds a large input; a small one is still
		// narrowed by its size.
		capped := runtime.NewBudget(runtime.JobLimits{MaxProcs: 2})
		if wp, _, _, _ := c.regionWidth(cutGrep("64m.txt"), "big", 8, capped, in); wp != (dfg.WidthPlan{Asked: 8, Planned: 2, Reason: dfg.WidthBudget}) {
			t.Errorf("64 MB under a cap of 2: %v", wp)
		}
		if wp, _, _, _ := c.regionWidth(cutGrep("4k.txt"), "small", 8, capped, in); wp.Planned != 1 || wp.Reason != dfg.WidthInput {
			t.Errorf("4 KB under a cap of 2: %v", wp)
		}
	})
}

// TestPlanHitDoesNotLiftAgain: running a region lifts it once — the miss
// optimizes the graph the width decision was read off — and a plan-cache
// hit lifts nothing: its inputs are remembered and sizing them is a stat.
func TestPlanHitDoesNotLiftAgain(t *testing.T) {
	run, in := smallRegionRunner(t, plannedOptions(2))
	for i := 0; i < 5; i++ {
		run()
	}
	st := in.c.Plans.Stats()
	if st.Lifts != 1 || st.Misses != 1 || st.Hits != 4 || st.Regions != 1 {
		t.Errorf("five runs of one region: %+v, want 1 lift, 1 miss, 4 hits, 1 region remembered", st)
	}
	if n := st.Widths.N[dfg.WidthInput]; n != 5 {
		t.Errorf("size decisions counted: %d, want 5 (%v)", n, st.Widths)
	}
	// The decision follows the file: once it outgrows the break-even the
	// same region is planned wide, from the same memo.
	sparseFile(t, filepath.Join(in.dir, "s.txt"), 4<<20)
	wp, lifted, _, err := in.c.regionWidth(smallRegionStages, regionKey(smallRegionStages), 2, nil, RegionInput{FS: commands.OSFS{Dir: in.dir}})
	if err != nil || lifted != nil || wp != (dfg.WidthPlan{Asked: 2, Planned: 2, Reason: dfg.WidthInput, Measure: 4 << 20}) {
		t.Errorf("after the file grew: %v (lifted %v, err %v)", wp, lifted != nil, err)
	}
}

// loopScripts are the loop-control benchmark's two legs.
func loopScripts(iters int) (hit, miss string) {
	loop := func(body string) string { return fmt.Sprintf("for i in $(seq 1 %d); do %s; done", iters, body) }
	return loop(smallRegionBody), loop(`cut -d ' ' -f1 s.txt | grep "w$i" | wc -l`)
}

// TestLoopOverSmallFilePlansOnce: with Width a ceiling, a loop over a
// small file plans each distinct region once, at the width its file pays
// for — the first iteration already, which a rule that waits for history
// cannot do (it would miss once at width 2 and once more at width 1). The
// hit / miss counts are par+split's, which bench/bench_test.go
// pins; only the plans are smaller.
func TestLoopOverSmallFilePlansOnce(t *testing.T) {
	const iters = 20
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s.txt"), []byte(corpus(200)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		opts       Options
		totalNodes int
		maxNodes   int
		reason     dfg.WidthReason
	}{
		{"planned", plannedOptions(2), iters*2 + iters*3, 3, dfg.WidthInput},
		{"exact", DefaultOptions(2), iters*6 + iters*6, 6, dfg.WidthAsked},
	} {
		var total InterpStats
		hit, miss := loopScripts(iters)
		for _, src := range []string{hit, miss} {
			var out bytes.Buffer
			in := NewInterp(NewCompiler(tc.opts), dir, nil, runtime.StdIO{Stdout: &out})
			if code, err := in.RunScript(context.Background(), src); err != nil || code != 0 {
				t.Fatalf("%s: exit %d: %v", tc.name, code, err)
			}
			if want := runScript(t, Options{Width: 1}, src, "", dir, nil); out.String() != want {
				t.Errorf("%s: output differs from width 1", tc.name)
			}
			st := in.StatsSnapshot()
			total.Regions += st.Regions
			total.PlanHits += st.PlanHits
			total.PlanMisses += st.PlanMisses
			total.TotalNodes += st.TotalNodes
			total.MaxNodes = max(total.MaxNodes, st.MaxNodes)
			total.Widths.Add(st.Widths)
		}
		if total.Regions != 2*iters || total.PlanHits != iters-1 || total.PlanMisses != iters+1 {
			t.Errorf("%s: %d regions, %d hits, %d misses; want %d, %d, %d", tc.name,
				total.Regions, total.PlanHits, total.PlanMisses, 2*iters, iters-1, iters+1)
		}
		if total.TotalNodes != tc.totalNodes || total.MaxNodes != tc.maxNodes {
			t.Errorf("%s: %d nodes in all, %d in the largest region; want %d and %d", tc.name,
				total.TotalNodes, total.MaxNodes, tc.totalNodes, tc.maxNodes)
		}
		if n := total.Widths.N[tc.reason]; n != 2*iters {
			t.Errorf("%s: %d of %d regions decided by %s: %v", tc.name, n, 2*iters, tc.reason, total.Widths)
		}
	}
}

// TestHistoryKeepsLearningPastItsBound: the history map is bounded by
// forgetting the region seen longest ago, not by refusing new ones — a
// daemon that has seen maxTrackedRegions regions still learns about the
// next.
func TestHistoryKeepsLearningPastItsBound(t *testing.T) {
	pc := NewPlanCache(0)
	name := func(i int) string { return fmt.Sprintf("region-%d", i) }
	for i := 0; i < maxTrackedRegions; i++ {
		pc.noteRun(name(i), time.Millisecond)
	}
	pc.noteRun(name(0), time.Millisecond) // region 0 is in use again
	pc.noteRun(name(maxTrackedRegions), 50*time.Microsecond)
	pc.memoInputs(name(maxTrackedRegions+1), &regionInputs{})
	if st := pc.region(name(maxTrackedRegions)); st.runs != 1 || st.ewmaWall != 50*time.Microsecond {
		t.Errorf("region %d past the bound has no history: %d runs, %v", maxTrackedRegions, st.runs, st.ewmaWall)
	}
	if pc.region(name(maxTrackedRegions+1)).inputs == nil {
		t.Error("a memo past the bound was refused")
	}
	if n := pc.Stats().Regions; n != maxTrackedRegions {
		t.Errorf("%d regions remembered, want the bound %d", n, maxTrackedRegions)
	}
	if pc.region(name(0)).runs != 2 {
		t.Error("the recently used region was forgotten")
	}
	if pc.region(name(1)).runs != 0 || pc.region(name(2)).runs != 0 {
		t.Error("the regions seen longest ago were kept")
	}
}

// smallRegionBody is the loop-control benchmark's cached loop body.
const smallRegionBody = `cut -d ' ' -f1 s.txt | grep -c o`

var smallRegionStages = []Stage{{Name: "cut", Args: []string{"-d", " ", "-f1", "s.txt"}}, {Name: "grep", Args: []string{"-c", "o"}}}

// smallRegionRunner returns a function that runs smallRegionBody once over
// a 4 KB s.txt on a long-lived interpreter: after the first call every
// call is a plan hit.
func smallRegionRunner(tb testing.TB, opts Options) (run func(), in *Interp) {
	tb.Helper()
	dir := tb.TempDir()
	text := strings.Repeat("wood stone water iron wool coal tin\n", 113) // 4068 bytes
	if err := os.WriteFile(filepath.Join(dir, "s.txt"), []byte(text), 0o644); err != nil {
		tb.Fatal(err)
	}
	list, err := shell.Parse(smallRegionBody)
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	in = NewInterp(NewCompiler(opts), dir, nil, runtime.StdIO{Stdout: &out, Stderr: io.Discard})
	return func() {
		out.Reset()
		if code, err := in.RunParsed(context.Background(), list); err != nil || code != 0 || out.String() != "113\n" {
			tb.Fatalf("exit %d, err %v, output %q", code, err, out.String())
		}
	}, in
}

// TestSmallRegionAllocations: a plan-hit region over a 4 KB file costs a
// bounded number of small objects and nothing block-sized — every pooled
// block it takes it gives back. Measured: 92 objects and 5.1 KB a region
// at width 1, 95 planned down from a ceiling of 2 (153 and 7.1 KB, plus a
// fresh 64 KiB block per LineWriter, before this test existed); the
// exact six-node plan at width 2 takes 183. The bounds leave head-room
// for a Go release, not for a leak: one block not returned is 64 KiB a
// region.
func TestSmallRegionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		objects float64
	}{
		{"width 1", DefaultOptions(1), 120},
		{"planned from a ceiling of 2", plannedOptions(2), 125},
		{"exact width 2", DefaultOptions(2), 230},
	} {
		run, _ := smallRegionRunner(t, tc.opts)
		for i := 0; i < 10; i++ {
			run() // plan it, warm the block pool
		}
		const runs = 200
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		objects := testing.AllocsPerRun(runs, run)
		goruntime.ReadMemStats(&after)
		perRegion := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %.0f objects, %d bytes a region", tc.name, objects, perRegion)
		if objects > tc.objects {
			t.Errorf("%s: %.0f objects a region, want at most %.0f", tc.name, objects, tc.objects)
		}
		if perRegion >= commands.BlockSize/2 {
			t.Errorf("%s: %d bytes allocated a region: something block-sized is allocated and not returned", tc.name, perRegion)
		}
	}
}

// BenchmarkSmallRegion is one iteration of loop-control's hit loop, in
// process: a plan-hit region over a 4 KB file. Sequential, at the exact
// width 2 (six nodes) and planned down from a ceiling of 2 (two nodes).
func BenchmarkSmallRegion(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"width1", DefaultOptions(1)},
		{"width2-exact", DefaultOptions(2)},
		{"width2-planned", plannedOptions(2)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			run, _ := smallRegionRunner(b, bc.opts)
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// processCPU is the user + system time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkBreakEven is the sweep behind perReplicaBytes: the small-region
// pipeline over files of 16 KB to 4 MB, each iteration a fresh session (a
// cold plan cache, like a fresh pash), at the exact widths 1 and 2. Where
// width 2 starts to win is the break-even; ledger/README.md records a run.
func BenchmarkBreakEven(b *testing.B) {
	dir := b.TempDir()
	line := "wood stone water iron wool coal tin\n"
	for _, kb := range []int{16, 64, 128, 256, 512, 1024, 2048, 4096} {
		name := fmt.Sprintf("f%d.txt", kb)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Repeat(line, kb<<10/len(line))), 0o644); err != nil {
			b.Fatal(err)
		}
		src := strings.Replace(smallRegionBody, "s.txt", name, 1)
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dKB/width%d", kb, width), func(b *testing.B) {
				cpu := processCPU()
				for i := 0; i < b.N; i++ {
					in := NewInterp(NewCompiler(DefaultOptions(width)), dir, nil, runtime.StdIO{Stdout: io.Discard, Stderr: io.Discard})
					if code, err := in.RunScript(context.Background(), src); err != nil || code != 0 {
						b.Fatalf("exit %d: %v", code, err)
					}
				}
				// What the wall was bought with: user + system time of the
				// whole process, collector included.
				b.ReportMetric(float64(processCPU()-cpu)/float64(b.N), "cpu-ns/op")
			})
		}
	}
}
