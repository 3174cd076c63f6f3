package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"strings"
	"time"

	"repro/internal/commands"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/meter"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/shell"
	"repro/pash"
)

// Fixed probes: per-layer rows that do not depend on the workload. Each
// is taken from outside its package, by timing calls into public
// functions, and is measured the same way in every traced run, so that
// each run reports every row.

const (
	probeTextLines  = 500_000 // ≈16 MB of corpus text for the throughput rows
	sortProbeLines  = 100_000 // sort is ~50x slower per byte than a kernel
	regexProbeLines = 60_000  // Go's regexp runs at ~18 MB/s
)

// layerProbe collects the rows of one traced run. The timing helpers
// remember the first error a timed call returned; callers check err
// once per group of rows.
type layerProbe struct {
	cfg  config
	name string // workload the rows are filed under
	rows []row
	err  error
}

func (p *layerProbe) add(name, unit string, samples []float64) {
	p.rows = append(p.rows, summarize(p.name, name, unit, samples))
}

func (p *layerProbe) count(name, unit string, v float64) {
	p.rows = append(p.rows, single(p.name, name, unit, v))
}

// stat records one statistic (a percentile, say) taken over n samples.
func (p *layerProbe) stat(name, unit string, v float64, n int) {
	r := single(p.name, name, unit, v)
	r.N = n
	p.rows = append(p.rows, r)
}

func (p *layerProbe) median(name string) float64 {
	for _, r := range p.rows {
		if r.Name == name {
			return r.Median
		}
	}
	return 0
}

// perCall times fn in batches for about 40 ms and records the mean
// time per call of each batch, in units of `per` (time.Microsecond for
// a row in us).
func (p *layerProbe) perCall(name, unit string, per time.Duration, batch int, fn func() error) []float64 {
	var samples []float64
	deadline := time.Now().Add(40 * time.Millisecond)
	for len(samples) < 5 || (len(samples) < 200 && time.Now().Before(deadline)) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil && p.err == nil {
				p.err = fmt.Errorf("bench: %s: %w", name, err)
			}
		}
		samples = append(samples, float64(time.Since(start))/float64(batch)/float64(per))
	}
	p.add(name, unit, samples)
	return samples
}

// throughput runs fn over n bytes five times and records MB/s of each.
func (p *layerProbe) throughput(name string, n int, fn func() error) {
	samples := make([]float64, 5)
	for i := range samples {
		start := time.Now()
		if err := fn(); err != nil && p.err == nil {
			p.err = fmt.Errorf("bench: %s: %w", name, err)
		}
		samples[i] = float64(n) / 1e6 / time.Since(start).Seconds()
	}
	p.add(name, "MB/s", samples)
}

// memFS serves named in-memory operands to aggregator commands.
type memFS map[string][]byte

func (m memFS) Open(path string) (io.ReadCloser, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("bench: no operand %s", path)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}
func (m memFS) Create(string) (io.WriteCloser, error) { return nil, errors.New("bench: read-only") }
func (m memFS) Append(string) (io.WriteCloser, error) { return nil, errors.New("bench: read-only") }

// runCommand invokes one registry command over in-memory input. A
// non-zero exit status (grep selecting nothing) is not an error.
func runCommand(reg *commands.Registry, name string, args []string, stdin []byte, fs memFS) ([]byte, error) {
	var out bytes.Buffer
	err := reg.Run(name, &commands.Context{
		Name: name, Args: args,
		Stdin: bytes.NewReader(stdin), Stdout: &out, Stderr: io.Discard, FS: fs,
	})
	var exit *commands.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, fmt.Errorf("%s %v: %w", name, args, err)
	}
	return out.Bytes(), nil
}

// lineBlocks cuts text into ~64 KiB blocks ending on line boundaries,
// the unit the fused executor hands a kernel.
func lineBlocks(text []byte) [][]byte {
	var blocks [][]byte
	for len(text) > 0 {
		end := min(64<<10, len(text))
		if i := bytes.IndexByte(text[end-1:], '\n'); i >= 0 {
			end += i
		} else {
			end = len(text)
		}
		blocks = append(blocks, text[:end])
		text = text[end:]
	}
	return blocks
}

// fixedProbes measures every workload-independent row. first is the
// stage table of the workload's first leg, which the planner rows use.
func (p *layerProbe) fixedProbes(ctx context.Context, in *instance, first []core.Stage) error {
	c := newCorpus(p.cfg.seed + 1)
	text := c.text(scaled(probeTextLines, p.cfg.quick))
	sortText := c.text(scaled(sortProbeLines, p.cfg.quick))
	regexText := c.text(scaled(regexProbeLines, p.cfg.quick))

	if err := p.probeStartup(ctx, in.pashBin); err != nil {
		return err
	}
	if err := p.probeShell(); err != nil {
		return err
	}
	if err := p.probePlanner(first); err != nil {
		return err
	}
	if err := p.probeRuntime(ctx, in, text, sortText); err != nil {
		return err
	}
	if err := p.probeCommands(text, sortText, regexText); err != nil {
		return err
	}
	return p.probeControl(ctx, in.dir, text)
}

// probeStartup: cli.startup_ms, a pash process that does nothing.
func (p *layerProbe) probeStartup(ctx context.Context, pashBin string) error {
	var samples []float64
	for i := 0; i < 15; i++ {
		start := time.Now()
		if err := exec.CommandContext(ctx, pashBin, "-c", "true").Run(); err != nil {
			return fmt.Errorf("bench: pash -c true: %w", err)
		}
		samples = append(samples, time.Since(start).Seconds()*1e3)
	}
	p.add("cli.startup_ms", "ms", samples)
	return nil
}

// probeShell: the miss loop unrolled to 200 lines through the parser,
// and one word with a parameter through the expander.
func (p *layerProbe) probeShell() error {
	var unrolled strings.Builder
	for i := 1; i <= 200; i++ {
		unrolled.WriteString(strings.ReplaceAll(missBody, "$i", fmt.Sprint(i)) + "\n")
	}
	src := unrolled.String()
	parse := p.perCall("shell.parse_us", "us", time.Microsecond, 1, func() error {
		_, err := shell.Parse(src)
		return err
	})
	mbs := make([]float64, len(parse))
	for i, us := range parse {
		mbs[i] = float64(len(src)) / us // bytes per microsecond
	}
	p.add("shell.parse_mb_s", "MB/s", mbs)

	simples, err := simplesOf(missBody)
	if err != nil {
		return err
	}
	env := shell.NewEnv()
	env.Set("i", "42")
	x := &shell.Expander{Env: env}
	word := simples[1].Args[1] // "w$i"
	p.perCall("shell.expand_us", "us", time.Microsecond, 1000, func() error {
		_, err := x.ExpandWord(word)
		return err
	})
	return p.err
}

// probePlanner: planning one pipeline cold and cached, and the passes
// inside a cold plan on their own.
func (p *layerProbe) probePlanner(stages []core.Stage) error {
	width := p.cfg.width
	cold := core.NewCompiler(core.DefaultOptions(width))
	cold.Plans = nil
	p.perCall("core.plan_miss_us", "us", time.Microsecond, 10, func() error {
		_, _, err := cold.PlanRegion(stages, width)
		return err
	})
	warm := core.NewCompiler(core.DefaultOptions(width))
	planned, _, err := warm.PlanRegion(stages, width)
	if err != nil {
		return err
	}
	p.perCall("core.plan_hit_us", "us", time.Microsecond, 100, func() error {
		_, _, err := warm.PlanRegion(stages, width)
		return err
	})
	p.perCall("core.optimize_us", "us", time.Microsecond, 10, func() error {
		g, err := cold.CompilePipeline(stages, core.RegionIO{})
		if err == nil {
			cold.Optimize(g)
		}
		return err
	})
	p.perCall("dfg.clone_us", "us", time.Microsecond, 100, func() error {
		planned.Clone()
		return nil
	})
	// Distribute rewrites the graph it is given, so each call gets a
	// fresh clone, made outside the timed interval.
	var distribute []float64
	for i := 0; i < 50; i++ {
		g := planned.Clone()
		start := time.Now()
		dfg.Distribute(g, dfg.DistOptions{Workers: []string{"http://w1", "http://w2"}})
		distribute = append(distribute, float64(time.Since(start))/float64(time.Microsecond))
	}
	p.add("dfg.distribute_us", "us", distribute)
	return p.err
}

// probeRuntime: pipe hand-off with fusion off, the fixed cost of a
// region, the scheduler's two uncontended grants, and where a parallel
// stateless region and a parallel sort spend their active time.
func (p *layerProbe) probeRuntime(ctx context.Context, in *instance, text, sortText []byte) error {
	width := p.cfg.width
	unfused := core.NewCompiler(core.DefaultOptions(1))
	unfused.Opts.DisableFusion = true
	unfused.Plans = nil
	catcat := []core.Stage{{Name: "cat"}, {Name: "cat"}}
	execute := func(input []byte) error {
		g, _, err := unfused.PlanRegion(catcat, 1)
		if err != nil {
			return err
		}
		_, err = runtime.Execute(ctx, g, unfused.Cmds,
			runtime.StdIO{Stdin: bytes.NewReader(input), Stdout: io.Discard, Stderr: io.Discard},
			runtime.Config{DisableFusion: true})
		return err
	}
	p.throughput("runtime.handoff_mb_s", len(text), func() error { return execute(text) })
	p.perCall("runtime.execute_fixed_us", "us", time.Microsecond, 10, func() error { return execute(nil) })
	sched := runtime.NewScheduler(0)
	p.perCall("runtime.admit_ns", "ns", time.Nanosecond, 1000, func() error {
		release, err := sched.AdmitKey(ctx, "t0")
		if err == nil {
			release()
		}
		return err
	})
	p.perCall("runtime.acquire_width_ns", "ns", time.Nanosecond, 1000, func() error {
		_, release := sched.AcquireWidth(width)
		release()
		return nil
	})
	if p.err != nil {
		return p.err
	}

	// Both probes read a pipe, so the stateless one takes the
	// round-robin split and the order-restoring merge.
	profile := func(file, script string, input []byte) (legProfile, error) {
		l := leg{name: file, script: script, body: script, stdin: file}
		if err := writeFile(in.dir, file, input); err != nil {
			return legProfile{}, err
		}
		var err error
		if l.ref, err = reference(ctx, in.oracle, in.dir, kindCLI, l); err != nil {
			return legProfile{}, err
		}
		return decomposedRun(ctx, in.dir, l, width, nil, nil, "")
	}
	stateless, err := profile("probe-stateless.txt", statelessScript, text)
	if err != nil {
		return err
	}
	p.count("runtime.split_active_s", "s", stateless.byKind[dfg.KindSplit].Seconds())
	p.count("runtime.merge_active_s", "s", stateless.byKind[dfg.KindMerge].Seconds())
	for _, st := range []string{"tr", "grep", "cut", "sed"} {
		p.count("runtime.fused_stage_active_s."+st, "s", stateless.byStage[st].Seconds())
	}
	sorter, err := profile("probe-sort.txt", "tr A-Z a-z | sort", sortText)
	if err != nil {
		return err
	}
	p.count("runtime.agg_active_s", "s", sorter.byKind[dfg.KindAgg].Seconds())
	return nil
}

// probeCommands: each kernel and the two heavy commands against the
// memcpy roofline, and the three aggregators the merge trees run.
func (p *layerProbe) probeCommands(text, sortText, regexText []byte) error {
	reg := core.NewCompiler(core.DefaultOptions(1)).Cmds
	dst := make([]byte, len(text))
	p.throughput("commands.memcpy_mb_s", len(text), func() error {
		copy(dst, text)
		return nil
	})
	kernels := []struct {
		row, name string
		args      []string
		text      []byte
	}{
		{"tr", "tr", []string{"A-Z", "a-z"}, text},
		{"grep-fixed", "grep", []string{"water"}, text},
		{"grep-regex", "grep", []string{"-E", "(a|e).*(water|ing)"}, regexText},
		{"cut", "cut", []string{"-d", " ", "-f1-3"}, text},
		{"sed", "sed", []string{"s/water/WATER/"}, text},
	}
	for _, k := range kernels {
		blocks := lineBlocks(k.text)
		var out []byte
		p.throughput("commands.kernel_mb_s."+k.row, len(k.text), func() error {
			kern, ok := commands.NewKernel(k.name, k.args)
			if !ok {
				return fmt.Errorf("%s %v has no kernel", k.name, k.args)
			}
			for _, b := range blocks {
				out = kern.Apply(out[:0], b)
			}
			out = kern.Finish(out[:0])
			return nil
		})
	}
	run := func(name string, args []string, stdin []byte, fs memFS) func() error {
		return func() error {
			_, err := runCommand(reg, name, args, stdin, fs)
			return err
		}
	}
	p.throughput("commands.tr_cs_mb_s", len(text), run("tr", []string{"-cs", "A-Za-z", "\n"}, text, nil))
	p.throughput("commands.sort_mb_s", len(sortText), run("sort", nil, sortText, nil))
	p.throughput("commands.wc_mb_s", len(text), run("wc", []string{"-l"}, text, nil))
	if p.err != nil {
		return p.err
	}

	// Two sorted halves for the merge, and their `uniq -c` for the fold.
	half := bytes.LastIndexByte(sortText[:len(sortText)/2], '\n') + 1
	var operands [4][]byte
	for i, input := range [][]byte{sortText[:half], sortText[half:]} {
		var err error
		if operands[i], err = runCommand(reg, "sort", nil, input, nil); err != nil {
			return err
		}
		if operands[i+2], err = runCommand(reg, "uniq", []string{"-c"}, operands[i], nil); err != nil {
			return err
		}
	}
	p.throughput("agg.sort_merge_mb_s", len(sortText),
		run("sort", []string{"-m", "a", "b"}, nil, memFS{"a": operands[0], "b": operands[1]}))
	p.throughput("agg.uniq_c_mb_s", len(operands[2])+len(operands[3]),
		run("pash-agg-uniq", []string{"-c", "a", "b"}, nil, memFS{"a": operands[2], "b": operands[3]}))
	p.perCall("agg.wc_us", "us", time.Microsecond, 100,
		run("pash-agg-wc", []string{"-l", "a", "b"}, nil, memFS{"a": []byte("100\n"), "b": []byte("200\n")}))
	return p.err
}

// probeControl: one tenant admission, one stream window and one fold,
// and the /run handler with no socket under it.
func (p *layerProbe) probeControl(ctx context.Context, dir string, text []byte) error {
	width := p.cfg.width
	tenant := meter.New(meter.Config{DefaultQuota: 1 << 50, Rate: 1e9, Burst: 1 << 30}).Tenant("t0")
	p.perCall("meter.admit_ns", "ns", time.Nanosecond, 1000, func() error {
		if cause, _ := tenant.Admit(); cause != meter.CauseNone {
			return fmt.Errorf("admission refused: %s", cause)
		}
		return nil
	})

	plan, err := core.NewCompiler(core.DefaultOptions(width)).PlanStream(cumulativeScript, dir, nil)
	if err != nil {
		return err
	}
	window := text[:windowOffsets(text)[0]]
	var state, partial bytes.Buffer
	if _, err := plan.RunWindow(ctx, bytes.NewReader(window), &state, io.Discard, width); err != nil {
		return err
	}
	p.perCall("stream.runwindow_ms", "ms", time.Millisecond, 1, func() error {
		partial.Reset()
		_, err := plan.RunWindow(ctx, bytes.NewReader(window), &partial, io.Discard, width)
		return err
	})
	p.perCall("stream.combine_us", "us", time.Microsecond, 10, func() error {
		_, err := plan.Combine(state.Bytes(), partial.Bytes())
		return err
	})

	handler := serve.New(pash.NewSession(pash.DefaultOptions(width)), runtime.NewScheduler(0)).Handler()
	tiny := "/run?script=" + url.QueryEscape(tinyScript)
	p.perCall("serve.handler_us.tiny", "us", time.Microsecond, 10, func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tiny, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	})
	return p.err
}
