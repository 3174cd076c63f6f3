// Command bench is the repository's one benchmark. It builds cmd/pash
// and cmd/pash-serve, generates its own inputs from a seed, and measures
// only what a client of those two programs sees: pash as a subprocess
// and pash-serve over a real socket. Every number it prints is measured
// wall-clock time or an exact count; none is a simulator projection.
//
//	go run -C bench .                       all six workloads
//	go run -C bench . -workload batch-sort  one of them
//	go run -C bench . -trace 1              the traced run: per-layer rows, bench/out/trace.json
//	go run -C bench . -quick                one tiny pass of each (plumbing check)
//	go run -C bench . -compare A.json B.json (either side may be a comma-separated list)
//
// See README.md in this directory for why each workload exists and how
// the rows relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const defaultSeed = 20210426 // the paper's EuroSys '21 opening day

type config struct {
	root    string
	seed    uint64
	seconds float64
	width   int
	quick   bool
	trace   bool
}

// report is bench/out/result.json.
type report struct {
	Commit     string           `json:"commit"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	HostCores  int              `json:"host_cores"`
	Width      int              `json:"width"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Quick      bool             `json:"quick"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadResult `json:"workloads"`
	Rows       []row            `json:"rows"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Reference string `json:"reference"` // "host": /bin/sh + coreutils; "self": pash -width 1
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: all)")
		seed     = flag.Uint64("seed", defaultSeed, "input generator seed")
		seconds  = flag.Float64("seconds", 12, "length of each workload's measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer rows and bench/out/trace.json instead of end-to-end metrics")
		quick    = flag.Bool("quick", false, "tiny inputs, one pass of each workload: checks plumbing, not speed")
		out      = flag.String("out", "", "where to write the result (default bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two sides given as arguments, each one result file or a comma-separated list")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	// SIGINT/SIGTERM cancel the context; every child was started under
	// it, and the deferred close of each set-up reaps them.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, width: loadWidth(), quick: *quick, trace: *trace != 0}
	selected := specs
	if *workload != "" {
		s, err := findSpec(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []spec{*s}
	}
	rep, err := runAll(ctx, cfg, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if *out == "" {
		*out = filepath.Join(root, outDirName, "result.json")
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// loadWidth is W: the number of load-generator connections and the
// parallel width handed to the programs, nproc clamped to [2,4].
func loadWidth() int { return min(max(runtime.NumCPU(), 2), 4) }

func runAll(ctx context.Context, cfg config, selected []spec) (*report, error) {
	rep := &report{
		Commit: commit(cfg.root), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCores: runtime.NumCPU(), Width: cfg.width, Seed: cfg.seed, Seconds: cfg.seconds,
		Quick: cfg.quick, Traced: cfg.trace,
	}
	fmt.Printf("bench: commit %s, %s, GOMAXPROCS %d, %d cores, W=%d, seed %d, %gs per workload\n",
		rep.Commit, rep.Go, rep.GOMAXPROCS, rep.HostCores, rep.Width, rep.Seed, rep.Seconds)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := range selected {
		res, rows, err := runWorkload(ctx, cfg, &selected[i], tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", selected[i].name, err)
		}
		rep.Workloads = append(rep.Workloads, res)
		rep.Rows = append(rep.Rows, rows...)
		printRows(selected[i].name, rows)
		fmt.Println(contractLine(cfg, res, rows))
	}
	if tr != nil {
		if err := tr.write(filepath.Join(cfg.root, outDirName, "trace.json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setupReps is how many times a run sets the workload up; setup_s is
// their median, and the last one is measured.
const setupReps = 3

// runWorkload sets one workload up, measures it, and returns its rows.
func runWorkload(ctx context.Context, cfg config, s *spec, tr *tracer) (workloadResult, []row, error) {
	reps := setupReps
	if cfg.quick || cfg.trace {
		reps = 1
	}
	var in *instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = setUp(ctx, cfg, s); err != nil {
			return workloadResult{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()

	// Measure: alternate the two sides until the time is up. A traced
	// run needs the passes only for its cli.* rows.
	limit, minPasses := time.Duration(cfg.seconds*float64(time.Second)), 3
	if cfg.trace {
		limit, minPasses = 0, 2
	}
	if cfg.quick {
		limit, minPasses = 0, 1
	}
	var par, seq []passSample
	res := workloadResult{Name: s.name, Reference: in.reference}
	for start := time.Now(); len(par) < minPasses || time.Since(start) < limit; {
		for _, sd := range []side{sidePar, sideSeq} {
			ps, err := in.pass(ctx, sd, nil)
			if err != nil {
				return res, nil, err
			}
			res.Attempted += len(ps.ops)
			res.Failed += ps.failed()
			if sd == sidePar {
				par = append(par, ps)
			} else {
				seq = append(seq, ps)
			}
		}
	}
	res.Correct = res.Failed == 0

	var rows []row
	if cfg.trace {
		probe := &layerProbe{cfg: cfg, name: s.name}
		first, err := stagesOf(in.legs[0])
		if err != nil {
			return res, nil, err
		}
		if err := probe.fixedProbes(ctx, in, first); err != nil {
			return res, nil, err
		}
		if err := probe.serveProbes(ctx, in, tr); err != nil {
			return res, nil, err
		}
		if err := probe.scopedRows(ctx, in, par, seq, tr); err != nil {
			return res, nil, err
		}
		rows = probe.rows
	} else {
		rows = endToEndRows(s.name, setups, par, seq)
	}
	sortRows(rows)
	return res, rows, nil
}

// endToEndRows reduces a run's passes to the eight end-to-end metrics.
func endToEndRows(workload string, setups []float64, par, seq []passSample) []row {
	var wall, seqWall, cpu, rate, p50, p95, rowRate []float64
	for _, ps := range par {
		var lat []time.Duration
		good := 0
		for _, op := range ps.ops {
			lat = append(lat, op.wall)
			if op.ok {
				good++
			}
		}
		wall = append(wall, ps.wall.Seconds())
		cpu = append(cpu, ps.cpu.Seconds())
		rate = append(rate, float64(good)/ps.wall.Seconds())
		p50 = append(p50, percentile(lat, 50).Seconds()*1e3)
		p95 = append(p95, percentile(lat, 95).Seconds()*1e3)
		rowRate = append(rowRate, float64(ps.rows)/ps.wall.Seconds())
	}
	for _, ps := range seq {
		seqWall = append(seqWall, ps.wall.Seconds())
	}
	samples := map[string][]float64{
		"setup_s": setups, "wall_s": wall, "seq_wall_s": seqWall, "cpu_s": cpu,
		"req_per_s": rate, "latency_p50_ms": p50, "latency_p95_ms": p95, "rows_per_s": rowRate,
	}
	var rows []row
	for _, m := range endToEnd {
		r := summarize(workload, m.name, m.unit, samples[m.name])
		r.EndToEnd, r.Better, r.Bound = true, m.better, m.bound
		rows = append(rows, r)
	}
	return rows
}

// contractLine is the run's last line of output: one JSON object with
// the end-to-end metrics, or in a traced run the per-layer metrics.
func contractLine(cfg config, res workloadResult, rows []row) string {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		for _, r := range rows {
			if r.Name == m.name {
				metrics[m.name] = value{r.Median, m.unit}
			}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

func printRows(workload string, rows []row) {
	fmt.Printf("\n== %s ==\n", workload)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tn\tmedian\tq1\tq3\tkind\t")
	memcpy := 0.0
	for _, r := range rows {
		if r.Name == "commands.memcpy_mb_s" {
			memcpy = r.Median
		}
	}
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Name] = r
		note := ""
		if memcpy > 0 && r.Unit == "MB/s" && (r.layer() == "commands" || r.layer() == "agg") && r.Name != "commands.memcpy_mb_s" {
			note = fmt.Sprintf("  %.3f of memcpy", r.Median/memcpy)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%s%s\t\n", r.Name, r.Unit, r.N, r.Median, r.Q1, r.Q3, r.Kind, note)
	}
	tw.Flush()
	if w, s := byName["wall_s"], byName["seq_wall_s"]; w.Median > 0 {
		// Derived, not gated: a speedup worsens when width 1 gets faster.
		fmt.Printf("derived: seq_wall_s / wall_s = %.3f (base seq_wall_s %.4g s)\n", s.Median/w.Median, s.Median)
	}
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeFile(dir, name string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
