package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Executor runs one window of the stream as a finite batch region and
// folds cumulative partials. core.StreamPlan is the implementation;
// the interface keeps this package free of compiler imports.
type Executor interface {
	// RunWindow executes the pipeline over one window payload, width
	// being the window's ask (the planner decides and the scheduler
	// grants what it runs at), writing the window's raw result to out.
	RunWindow(ctx context.Context, win io.Reader, out, errw io.Writer, width int) (int, error)
	// Combine folds a window partial into carried state, returning the
	// next state. A nil state means the first window.
	Combine(state, partial []byte) ([]byte, error)
}

// Config wires a Runner: the unbounded source, the per-window
// executor, trigger policy, backpressure bound, checkpointing, and the
// output sinks.
type Config struct {
	Source Source
	Exec   Executor

	// Cumulative selects the emit mode: false appends each window's
	// output (delta), true folds partials and emits the running value
	// every window.
	Cumulative bool

	// Interval is the time trigger (default 1s). MaxBytes, when > 0,
	// also closes a window once its complete lines reach that size —
	// deterministically, which checkpointed failover relies on.
	Interval time.Duration
	MaxBytes int64

	// MaxBuffer bounds the bytes the windower reads ahead of the
	// runner; at the bound the source is paused, not killed. 0 means
	// the bound is one window.
	MaxBuffer int64

	// CheckpointPath enables checkpointed failover: a checkpoint is
	// saved after every window, so resume never duplicates an emission.
	CheckpointPath string

	// Resume carries a previously loaded checkpoint. The caller must
	// have positioned Source at Resume.SourceOffset.
	Resume *Checkpoint

	// Width is the width every window asks for; how wide each one runs
	// is decided per window from its bytes. Below 1 asks for 1.
	Width int

	// Out receives emissions; Errw receives stage stderr (both
	// required; Errw may be io.Discard).
	Out  io.Writer
	Errw io.Writer
}

// Stats is a live snapshot of a streaming job, shaped for /metrics.
type Stats struct {
	Windows          int64   `json:"windows"`
	Rows             int64   `json:"rows"`
	Bytes            int64   `json:"bytes"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	WindowLagMs      int64   `json:"window_lag_ms"`
	EmitP50Ms        float64 `json:"emit_p50_ms,omitempty"`
	EmitP99Ms        float64 `json:"emit_p99_ms,omitempty"`
	CheckpointSeq    int64   `json:"checkpoint_seq,omitempty"`
	CheckpointAgeMs  int64   `json:"checkpoint_age_ms,omitempty"`
	CheckpointSaves  int64   `json:"checkpoint_saves,omitempty"`
	CheckpointWallMs int64   `json:"checkpoint_wall_ms,omitempty"`
	Pauses           int64   `json:"pauses,omitempty"`
	BufferedBytes    int64   `json:"buffered_bytes,omitempty"`
	Rotations        int64   `json:"rotations,omitempty"`
	Emit             string  `json:"emit"`
	Resumed          bool    `json:"resumed,omitempty"`
}

// Runner drives one streaming job: windower in, executor per window,
// composition per the emit mode, checkpoints at window boundaries.
type Runner struct {
	cfg Config
	w   *windower

	windows  atomic.Int64
	rows     atomic.Int64
	bytesIn  atomic.Int64
	lagMs    atomic.Int64
	rateBits atomic.Uint64 // math.Float64bits of the rows/sec EWMA

	ckptSeq   atomic.Int64
	ckptTime  atomic.Int64 // unix nanos of last save
	ckptSaves atomic.Int64
	ckptWall  atomic.Int64 // cumulative save wall, nanos

	resumed bool

	// lats rings the most recent maxLatSamples emit latencies; latN
	// counts every latency noted, so latN % maxLatSamples is the next
	// slot to overwrite.
	latMu sync.Mutex
	lats  []time.Duration
	latN  int
}

// maxLatSamples bounds the emit-latency record, the samples behind
// Stats.EmitP50Ms and Stats.EmitP99Ms: the most recent windows', so the
// percentiles keep following a job that runs for days.
const maxLatSamples = 1 << 16

// EmitName names an emit mode the way Stats and checkpoints record it.
func EmitName(cumulative bool) string {
	if cumulative {
		return "cumulative"
	}
	return "delta"
}

// NewRunner validates cfg and builds a runner. Call Run once.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Source == nil || cfg.Exec == nil || cfg.Out == nil {
		return nil, fmt.Errorf("stream: Config needs Source, Exec, and Out")
	}
	if cfg.Errw == nil {
		cfg.Errw = io.Discard
	}
	r := &Runner{cfg: cfg}
	// The windower (and its source-reader goroutine) starts here so
	// that Stats never races Run's startup; Run must follow promptly.
	r.w = newWindower(cfg.Source, cfg.Interval, cfg.MaxBytes, cfg.MaxBuffer, cfg.Source.Offset())
	if cfg.Resume != nil {
		r.resumed = true
		r.windows.Store(cfg.Resume.Windows)
		r.rows.Store(cfg.Resume.Rows)
		r.ckptSeq.Store(cfg.Resume.Seq)
		r.ckptTime.Store(cfg.Resume.Time.UnixNano())
	}
	return r, nil
}

// Run executes the stream until the source ends (clean EOF → nil, the
// job exits 0), the context is canceled, or a window/checkpoint fails.
// It is the caller's job to Close the Source (that is also how a
// follow stream is stopped).
func (r *Runner) Run(ctx context.Context) error {
	cfg := r.cfg
	defer r.w.stop()

	var state []byte
	if cfg.Resume != nil && len(cfg.Resume.State) > 0 {
		state = append([]byte(nil), cfg.Resume.State...)
	}
	lastWindow := time.Now()

	for {
		win, final, err := r.w.Next(ctx)
		if len(win) > 0 {
			t0 := time.Now()
			if cfg.Cumulative {
				var partial bytes.Buffer
				if _, werr := cfg.Exec.RunWindow(ctx, bytes.NewReader(win), &partial, cfg.Errw, cfg.Width); werr != nil {
					return werr
				}
				state, err = cfg.Exec.Combine(state, partial.Bytes())
				if err != nil {
					return err
				}
				if _, werr := cfg.Out.Write(state); werr != nil {
					return fmt.Errorf("stream: emit: %w", werr)
				}
			} else {
				if _, werr := cfg.Exec.RunWindow(ctx, bytes.NewReader(win), cfg.Out, cfg.Errw, cfg.Width); werr != nil {
					return werr
				}
			}

			now := time.Now()
			rows := int64(bytes.Count(win, []byte{'\n'}))
			r.windows.Add(1)
			r.rows.Add(rows)
			r.bytesIn.Add(int64(len(win)))
			r.lagMs.Store(now.Sub(t0).Milliseconds())
			r.noteLatency(now.Sub(t0))
			r.noteRate(rows, now.Sub(lastWindow))
			lastWindow = now

			if cfg.CheckpointPath != "" {
				if cerr := r.checkpoint(state); cerr != nil {
					return cerr
				}
			}
		}
		if final {
			if err != nil {
				return err
			}
			// Final checkpoint so a re-run of a finished stream resumes
			// past the whole input.
			if cfg.CheckpointPath != "" && r.windows.Load() > 0 {
				if cerr := r.checkpoint(state); cerr != nil {
					return cerr
				}
			}
			return nil
		}
	}
}

// checkpoint saves the current window boundary + fold state.
func (r *Runner) checkpoint(state []byte) error {
	cp := &Checkpoint{
		Seq:          r.ckptSeq.Load() + 1,
		SourceOffset: r.w.Boundary(),
		Windows:      r.windows.Load(),
		Rows:         r.rows.Load(),
		Emit:         EmitName(r.cfg.Cumulative),
		Time:         time.Now(),
	}
	if state != nil {
		cp.State = append([]byte(nil), state...)
	}
	t0 := time.Now()
	if err := SaveCheckpoint(r.cfg.CheckpointPath, cp); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	r.ckptWall.Add(int64(time.Since(t0)))
	r.ckptSeq.Store(cp.Seq)
	r.ckptTime.Store(cp.Time.UnixNano())
	r.ckptSaves.Add(1)
	return nil
}

// noteRate updates the rows/sec EWMA from one window's row count and
// the gap since the previous window closed.
func (r *Runner) noteRate(rows int64, dt time.Duration) {
	if dt <= 0 {
		dt = time.Millisecond
	}
	inst := float64(rows) / dt.Seconds()
	prev := math.Float64frombits(r.rateBits.Load())
	next := inst
	if prev > 0 {
		next = 0.25*inst + 0.75*prev
	}
	r.rateBits.Store(math.Float64bits(next))
}

func (r *Runner) noteLatency(d time.Duration) {
	r.latMu.Lock()
	if len(r.lats) < maxLatSamples {
		r.lats = append(r.lats, d)
	} else {
		r.lats[r.latN%maxLatSamples] = d
	}
	r.latN++
	r.latMu.Unlock()
}

// latPercentiles computes the p50/p99 window emit latency in
// milliseconds from the recorded samples.
func (r *Runner) latPercentiles() (p50, p99 float64) {
	r.latMu.Lock()
	lats := append([]time.Duration(nil), r.lats...)
	r.latMu.Unlock()
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}

// Stats snapshots the runner; safe to call concurrently with Run.
func (r *Runner) Stats() Stats {
	st := Stats{
		Windows:     r.windows.Load(),
		Rows:        r.rows.Load(),
		Bytes:       r.bytesIn.Load(),
		RowsPerSec:  math.Float64frombits(r.rateBits.Load()),
		WindowLagMs: r.lagMs.Load(),
		Resumed:     r.resumed,
		Emit:        EmitName(r.cfg.Cumulative),
	}
	if seq := r.ckptSeq.Load(); seq > 0 {
		st.CheckpointSeq = seq
		st.CheckpointAgeMs = time.Since(time.Unix(0, r.ckptTime.Load())).Milliseconds()
		st.CheckpointSaves = r.ckptSaves.Load()
		st.CheckpointWallMs = time.Duration(r.ckptWall.Load()).Milliseconds()
	}
	if r.w != nil {
		st.Pauses = r.w.Pauses()
		st.BufferedBytes = r.w.Buffered()
	}
	st.EmitP50Ms, st.EmitP99Ms = r.latPercentiles()
	if fs, ok := r.cfg.Source.(*FollowSource); ok {
		st.Rotations = fs.Rotations()
	}
	return st
}
