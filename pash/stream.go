package pash

// Streaming jobs: WithStreamInput makes a job's one statement run
// windowed over an unbounded source. Start plans the stream once,
// through the job's own interpreter — its budget, jail, traffic meter
// and Session.Dir — and that plan is the one the job runs, window by
// window through the internal/stream runner, each window a region of
// that interpreter. Lifecycle differences from batch jobs, per the
// streaming contract:
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

	"repro/internal/commands"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/shell"
	"repro/internal/stream"
)

// StreamStats re-exports the streaming runner's live metrics (rows/sec,
// window lag, checkpoint age, backpressure pauses).
type StreamStats = stream.Stats

// ErrNotStreamable marks scripts the streaming planner rejects; only
// single pipelines reading stdin, of stateless stages with an optional
// associative aggregation tail, can stream.
var ErrNotStreamable = core.ErrNotStreamable

// StreamConfig shapes one streaming job. Exactly one of FollowPath and
// Reader must be set. Relative paths resolve under Session.Dir, and a
// sandboxed job refuses paths that leave it, as its commands do.
type StreamConfig struct {
	// FollowPath tails a file with rotation detection (tail -F).
	FollowPath string
	// Reader streams from an arbitrary reader (socket, request body);
	// its EOF ends the stream cleanly.
	Reader io.Reader
	// Poll is the follow source's no-data poll interval (default 50ms).
	Poll time.Duration

	// Interval is the window time trigger (default 1s). WindowBytes,
	// when > 0, also closes windows at that size — deterministically,
	// which replay-exact failover needs.
	Interval    time.Duration
	WindowBytes int64

	// CheckpointPath enables checkpointed failover, saving after every
	// window. Resume loads the checkpoint at CheckpointPath and
	// continues from it; a missing checkpoint starts fresh.
	CheckpointPath string
	Resume         bool
}

// WithStreamInput runs the job as a streaming execution over sc's
// source instead of a batch run over stdio.Stdin. Start plans the
// stream, so the script's command substitutions run there, under the
// job's jail and budget, and a script that cannot stream fails Start
// with ErrNotStreamable.
func WithStreamInput(sc StreamConfig) StartOption {
	return func(c *startConfig) { scc := sc; c.stream = &scc }
}

// streamJob is a stream planned at Start: its config with the paths
// resolved, and the runner's config, whole but for the source.
type streamJob struct {
	sc StreamConfig
	rc stream.Config
}

// planStream is Start's half of a streaming job: it checks sc, resolves
// its paths through fs (the job's directory and jail), plans list
// through in, and loads the checkpoint a resume continues from. rc
// brings the runner's sinks, width and buffer bound. A panic in the
// plan's command substitutions is the Start's error, as one while the
// job runs is the job's.
func planStream(in *core.Interp, list *shell.List, sc StreamConfig, fs commands.OSFS, rc stream.Config) (_ *streamJob, err error) {
	defer runtime.Contain("stream plan", &err)
	if (sc.FollowPath == "") == (sc.Reader == nil) {
		return nil, errors.New("pash: StreamConfig needs exactly one of FollowPath and Reader")
	}
	if sc.Resume && sc.CheckpointPath == "" {
		return nil, errors.New("pash: StreamConfig.Resume needs a CheckpointPath")
	}
	for _, p := range []*string{&sc.FollowPath, &sc.CheckpointPath} {
		if *p == "" {
			continue
		}
		if *p, err = fs.Resolve(*p); err != nil {
			return nil, err
		}
	}
	plan, err := in.PlanStream(list)
	if err != nil {
		return nil, err
	}
	rc.Exec, rc.Cumulative = plan, plan.Cumulative()
	rc.Interval, rc.MaxBytes, rc.CheckpointPath = sc.Interval, sc.WindowBytes, sc.CheckpointPath
	sj := &streamJob{sc: sc, rc: rc}
	if sc.Resume {
		cp, err := stream.LoadCheckpoint(sc.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if emit := stream.EmitName(plan.Cumulative()); cp != nil && cp.Emit != emit {
			return nil, fmt.Errorf("pash: checkpoint is %s but plan is %s", cp.Emit, emit)
		}
		sj.rc.Resume = cp
	}
	return sj, nil
}

// run is the streaming job's half of Job.run: it opens the source and
// runs the windows until the source ends (exit 0) or ctx is cancelled
// (exit 130).
func (sj *streamJob) run(ctx context.Context, j *Job) (int, error) {
	var src stream.Source
	if sj.sc.FollowPath != "" {
		var offset int64
		if sj.rc.Resume != nil {
			offset = sj.rc.Resume.SourceOffset
		}
		fs, err := stream.NewFollowSource(sj.sc.FollowPath, offset, sj.sc.Poll)
		if err != nil {
			return 1, err
		}
		src = fs
	} else {
		// A plain reader cannot seek: a resume keeps the fold state but
		// replays nothing.
		src = stream.NewReaderSource(sj.sc.Reader)
	}
	defer src.Close()
	// Cancellation must unblock a source parked in Read. Job.run
	// cancels ctx on every exit path, so this goroutine never leaks.
	go func() {
		<-ctx.Done()
		src.Close()
	}()

	rc := sj.rc
	rc.Source = src
	r, err := stream.NewRunner(rc)
	if err != nil {
		return 1, err
	}
	j.mu.Lock()
	j.runner = r
	j.mu.Unlock()
	if err := r.Run(ctx); err != nil {
		if ctx.Err() != nil {
			return 130, nil
		}
		return 1, err
	}
	return 0, nil
}
