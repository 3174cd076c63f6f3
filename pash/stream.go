package pash

// Streaming jobs: WithStreamInput turns a Start call into a continuous
// execution over an unbounded source. The script is compiled once into
// a StreamPlan (stateless stages plus, optionally, an associative
// aggregation tail), and the internal/stream runner executes it window
// by window — each window a normal batch region through the plan
// cache, scheduler, and distributed plane. Lifecycle differences from
// batch jobs, per the streaming contract:
//
//   - WallTimeout does not apply (the job is unbounded by design);
//     cancel the context or call Job.Cancel to stop it.
//   - MaxPipeMemory governs the windower's source buffer with
//     pause-the-source semantics instead of first-breach-kills.
//   - Exit status reflects the stream lifecycle: 0 on clean source
//     EOF, 130 on cancellation, ExitBudgetExceeded on output-budget
//     breach.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// StreamStats re-exports the streaming runner's live metrics (rows/sec,
// window lag, checkpoint age, backpressure pauses).
type StreamStats = stream.Stats

// ErrNotStreamable marks scripts the streaming planner rejects; only
// single pipelines of stateless stages with an optional associative
// aggregation tail can stream.
var ErrNotStreamable = core.ErrNotStreamable

// StreamConfig shapes one streaming job. Exactly one of FollowPath and
// Reader must be set.
type StreamConfig struct {
	// FollowPath tails a file with rotation detection (tail -F).
	FollowPath string
	// Reader streams from an arbitrary reader (socket, request body);
	// its EOF ends the stream cleanly.
	Reader io.Reader
	// Offset starts a follow source at a byte offset (ignored when a
	// checkpoint resume supplies one).
	Offset int64
	// Poll is the follow source's no-data poll interval (default 50ms).
	Poll time.Duration

	// Interval is the window time trigger (default 1s). WindowBytes,
	// when > 0, also closes windows at that size — deterministically,
	// which replay-exact failover needs.
	Interval    time.Duration
	WindowBytes int64

	// CheckpointPath enables checkpointed failover, saving after every
	// window. Resume loads the checkpoint at CheckpointPath and
	// continues from it.
	CheckpointPath string
	Resume         bool
}

// WithStreamInput runs the job as a streaming execution over sc's
// source instead of a batch run over stdio.Stdin.
func WithStreamInput(sc StreamConfig) StartOption {
	return func(c *startConfig) { scc := sc; c.stream = &scc }
}

// CheckStream reports whether src can run as a streaming job, without
// starting one: nil, or an error matching ErrNotStreamable explaining
// which shape rule the script breaks. pash-serve uses it to answer 400
// before committing a streaming response.
func (s *Session) CheckStream(src string) error {
	_, err := s.snapshot().PlanStream(src, s.Dir, s.Vars)
	return err
}

// runStream is the streaming counterpart of the batch half of Job.run;
// admission has already happened in run.
func (j *Job) runStream(ctx context.Context, c *core.Compiler, dir string, vars map[string]string, stdio JobIO) {
	sc := j.stream
	plan, err := c.PlanStream(j.src, dir, vars)
	if err != nil {
		code := 1
		if errors.Is(err, core.ErrNotStreamable) {
			code = 2
		}
		j.finish(code, err, core.InterpStats{})
		return
	}
	tr := &runtime.Traffic{}
	plan.Budget = j.budget
	plan.Traffic = tr
	plan.Sandbox = j.limits.Sandbox

	spec := plan.Window()
	if sc.Interval > 0 {
		spec.Interval = sc.Interval
	}
	spec.MaxBytes = sc.WindowBytes
	cumulative := spec.Emit == dfg.EmitCumulative

	var cp *stream.Checkpoint
	if sc.CheckpointPath != "" && sc.Resume {
		cp, err = stream.LoadCheckpoint(sc.CheckpointPath)
		if err != nil {
			j.finish(1, err, core.InterpStats{})
			return
		}
		if cp != nil && cp.Emit != spec.Emit.String() {
			j.finish(1, fmt.Errorf("pash: checkpoint is %s but plan is %s", cp.Emit, spec.Emit), core.InterpStats{})
			return
		}
	}

	var src stream.Source
	switch {
	case sc.FollowPath != "" && sc.Reader != nil:
		j.finish(1, errors.New("pash: StreamConfig sets both FollowPath and Reader"), core.InterpStats{})
		return
	case sc.FollowPath != "":
		offset := sc.Offset
		if cp != nil {
			offset = cp.SourceOffset
		}
		fs, ferr := stream.NewFollowSource(sc.FollowPath, offset, sc.Poll)
		if ferr != nil {
			j.finish(1, ferr, core.InterpStats{})
			return
		}
		src = fs
	case sc.Reader != nil:
		// A plain reader cannot seek: a resume keeps the fold state but
		// replays nothing.
		src = stream.NewReaderSource(sc.Reader)
	default:
		j.finish(1, errors.New("pash: StreamConfig needs FollowPath or Reader"), core.InterpStats{})
		return
	}
	defer src.Close()
	// Cancellation must unblock a source parked in Read. Job.run
	// cancels ctx on every exit path, so this goroutine never leaks.
	go func() {
		<-ctx.Done()
		src.Close()
	}()

	stdout := stdio.Stdout
	if stdout == nil {
		stdout = io.Discard
	}
	if j.limits.MaxOutputBytes > 0 {
		stdout = runtime.LimitWriter(stdout, j.budget, j.cancel)
	}
	stderr := stdio.Stderr
	if stderr == nil {
		stderr = io.Discard
	}

	r, err := stream.NewRunner(stream.Config{
		Source:         src,
		Exec:           plan,
		Cumulative:     cumulative,
		Interval:       spec.Interval,
		MaxBytes:       spec.MaxBytes,
		MaxBuffer:      j.limits.MaxPipeMemory,
		CheckpointPath: sc.CheckpointPath,
		Resume:         cp,
		Width:          c.Opts.Width,
		Out:            stdout,
		Errw:           stderr,
	})
	if err != nil {
		j.finish(1, err, core.InterpStats{})
		return
	}
	j.mu.Lock()
	j.runner = r
	j.splan = plan
	j.straffic = tr
	j.mu.Unlock()

	err = func() (err error) {
		defer runtime.Contain("stream-job", &err)
		return r.Run(ctx)
	}()
	code := 0
	switch {
	case err == nil:
	case ctx.Err() != nil:
		code, err = 130, nil
	default:
		code = 1
	}
	if be := j.budget.Exceeded(); be != nil {
		code, err = ExitBudgetExceeded, be
	}
	j.finish(code, err, streamStats(plan, tr))
}

// streamStats shapes a streaming job's counters into the InterpStats slot
// of JobStats: the windows it ran, counted by the stream plan as regions
// (nodes, plan verdicts, width decisions), and live traffic from the meter.
func streamStats(plan *core.StreamPlan, tr *runtime.Traffic) core.InterpStats {
	st := plan.Stats()
	st.BytesMoved, st.ChunksMoved = tr.Moved()
	return st
}
