package pash

// The Job API: Session.Start launches a script and returns a handle
// immediately, with streaming stdin/stdout, cancellation, and live
// statistics. Run and RunStats are thin wrappers (Start + Wait). The
// pash-serve daemon is built on Jobs: one Job per request, cancelled
// with the request's context, surfaced live in /metrics.

import (
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/commands"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/shell"
	"repro/internal/stream"
)

// JobIO binds a job's standard streams. A nil Stdin reads as empty; nil
// Stdout/Stderr discard. The job reads and writes these concurrently
// with the caller — pipes and sockets stream end to end.
type JobIO struct {
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// InterpStats re-exports the interpreter's region-level compilation
// metrics (regions, node counts, plan-cache hits/misses).
type InterpStats = core.InterpStats

// StartOption customizes a single Start call without mutating the
// session.
type StartOption func(*startConfig)

type startConfig struct {
	opts *Options
	pool *WorkerPool
	// setPool distinguishes "no override" from WithWorkers(nil).
	setPool bool
	limits  JobLimits
	// admitted, when set, is a scheduler slot the caller already holds
	// for this job; the job releases it on completion instead of
	// admitting itself.
	admitted func()
	// stream, when set, runs the job as a streaming execution over an
	// unbounded source (WithStreamInput).
	stream *StreamConfig
	// tenant is the admission key for fair scheduling ("" = anonymous).
	tenant string
}

// WithOptions overrides the session's planning options for this job
// only (per-request width, split mode, fusion toggles). The plan cache
// keys on these options, so per-job overrides share the cache safely.
func WithOptions(o Options) StartOption {
	return func(c *startConfig) { oc := o; c.opts = &oc }
}

// WithWorkers overrides the session's worker pool for this job only:
// a non-nil pool distributes the job's regions across it, nil forces
// purely local execution. The plan cache keys on the pool fingerprint,
// so per-job overrides share the cache safely.
func WithWorkers(pool *WorkerPool) StartOption {
	return func(c *startConfig) { c.pool = pool; c.setPool = true }
}

// WithLimits bounds this job's resource consumption (wall-clock time,
// output bytes, queued pipe memory, replica width, sandboxing). A
// breach cancels only this job, with ErrBudgetExceeded and exit status
// ExitBudgetExceeded.
func WithLimits(l JobLimits) StartOption {
	return func(c *startConfig) { c.limits = l }
}

// WithAdmitted hands the job a scheduler slot the caller already
// acquired (via Scheduler.Admit): the job skips its own admission and
// releases the slot when it finishes. The daemon uses it to decide
// shedding before committing an HTTP status.
func WithAdmitted(release func()) StartOption {
	return func(c *startConfig) { c.admitted = release }
}

// WithTenant tags the job with a tenant identity: its admission queues
// under that key (the scheduler round-robins across keys, so one
// tenant's backlog cannot starve another's) and the tenant rides the
// job's stats row. Empty means anonymous.
func WithTenant(name string) StartOption {
	return func(c *startConfig) { c.tenant = name }
}

// jobIDs hands out process-wide job identifiers (the Pid analog).
var jobIDs atomic.Int64

// Job is a handle on one started script: wait on it, cancel it, or
// inspect it while it runs. All methods are safe for concurrent use.
type Job struct {
	id       int64
	sess     *Session
	src      string
	parsed   *shell.List
	cancel   context.CancelFunc
	done     chan struct{}
	started  time.Time
	limits   JobLimits
	budget   *runtime.Budget
	admitted func()
	tenant   string

	// live is the job's interpreter: it runs the script, or plans the
	// stream whose windows run as its regions, and its Stats are the
	// job's region and traffic counters, live and final.
	live *core.Interp
	// stream, when set, is the stream the job runs instead of a script.
	stream *streamJob

	mu       sync.Mutex
	finished bool
	code     int
	err      error
	wall     time.Duration
	// runner is the streaming execution's live state.
	runner *stream.Runner
}

// JobStats is a point-in-time view of a job, live while it runs and
// frozen once it finishes.
type JobStats struct {
	ID     int64  `json:"id"`
	Script string `json:"script"`
	// Tenant is the identity the job was admitted under ("" = anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Running reports whether the job is still executing; ExitCode and
	// Err are meaningful only once it is false.
	Running     bool      `json:"running"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	ExitCode    int       `json:"exit_code"`
	Err         string    `json:"error,omitempty"`
	Interp      InterpStats
	// Limits echoes the job's configured budgets (zero = unlimited);
	// Budget is its live (or final) consumption against them.
	Limits JobLimits   `json:"limits"`
	Budget BudgetUsage `json:"budget"`
	// Stream carries the streaming runner's live metrics (rows/sec,
	// window lag, checkpoint age) for jobs started with
	// WithStreamInput; nil for batch jobs.
	Stream *StreamStats `json:"stream,omitempty"`
}

// Start parses and launches a script, returning a handle immediately.
// The script's syntax is validated synchronously (a parse error returns
// without starting anything), and so is a stream's plan
// (WithStreamInput): its command substitutions run here, under the
// job's jail and budget, and a script that cannot stream returns
// ErrNotStreamable. Execution — including scheduler admission when the
// session has one — happens in the job's own goroutine.
// Cancelling ctx, or calling Job.Cancel, stops the script at the next
// statement boundary with exit status 130.
func (s *Session) Start(ctx context.Context, src string, stdio JobIO, opts ...StartOption) (*Job, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return nil, err
	}
	var cfg startConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	c := s.snapshot()
	if cfg.opts != nil || cfg.setPool {
		cc := *c
		if cfg.opts != nil {
			cc.Opts = *cfg.opts
		}
		if cfg.setPool {
			if cfg.pool == nil {
				cc.Workers = nil
			} else {
				cc.Workers = cfg.pool
			}
		}
		c = &cc
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	blimits := cfg.limits
	if cfg.stream != nil {
		// Streaming lifecycle: MaxPipeMemory bounds the windower's
		// source buffer with pause-the-source semantics instead of
		// arming the first-breach-kills pipe budget, and WallTimeout
		// does not apply to an input that is unbounded by design.
		blimits.MaxPipeMemory = 0
		blimits.WallTimeout = 0
	}
	j := &Job{
		id:       jobIDs.Add(1),
		sess:     s,
		src:      src,
		parsed:   list,
		cancel:   cancel,
		done:     make(chan struct{}),
		started:  time.Now(),
		limits:   cfg.limits,
		budget:   runtime.NewBudget(blimits),
		admitted: cfg.admitted,
		tenant:   cfg.tenant,
	}
	stdout := stdio.Stdout
	if stdout == nil {
		stdout = io.Discard
	}
	if cfg.limits.MaxOutputBytes > 0 {
		stdout = runtime.LimitWriter(stdout, j.budget, cancel)
	}
	j.live = core.NewInterp(c, s.Dir, s.Vars,
		runtime.StdIO{Stdin: stdio.Stdin, Stdout: stdout, Stderr: stdio.Stderr})
	j.live.UseBudget(j.budget, cfg.limits.Sandbox)
	if cfg.stream != nil {
		j.stream, err = planStream(j.live, list, *cfg.stream, commands.OSFS{Dir: s.Dir, Jail: cfg.limits.Sandbox},
			stream.Config{MaxBuffer: cfg.limits.MaxPipeMemory, Width: c.Opts.Width, Out: stdout, Errw: stdio.Stderr})
		if err != nil {
			cancel()
			return nil, err
		}
	}
	s.trackJob(j)
	go j.run(jctx, c.Sched)
	return j, nil
}

func (j *Job) run(ctx context.Context, sched *runtime.Scheduler) {
	defer j.cancel()
	defer close(j.done)
	defer j.sess.untrackJob(j)
	if j.admitted != nil {
		defer j.admitted()
	} else if sched != nil {
		release, err := sched.AdmitKey(ctx, j.tenant)
		if err != nil {
			code := 1
			if ctx.Err() != nil {
				// Cancelled while queued for admission: same contract
				// as cancellation mid-script.
				code = 130
			}
			j.finish(code, err)
			return
		}
		defer release()
	}
	// The recover boundary turns a panic anywhere in the interpreter's
	// own frame — including user extension code running inline — into
	// this job's error, never a process crash.
	var code int
	err := func() (err error) {
		defer runtime.Contain("job", &err)
		if j.stream != nil {
			code, err = j.stream.run(ctx, j)
			return err
		}
		// Wall-clock budget: the timer attributes the kill to the budget
		// before cancelling, so the breach outranks the generic 130.
		if j.limits.WallTimeout > 0 {
			t := time.AfterFunc(j.limits.WallTimeout, func() {
				j.budget.TripWall()
				j.cancel()
			})
			defer t.Stop()
		}
		// Reuse the list Start already parsed for validation.
		code, err = j.live.RunParsed(ctx, j.parsed)
		return err
	}()
	// Budget breaches outrank the generic failure codes they cascade
	// into (a wall-timeout cancel surfaces as 130, a pipe-memory breach
	// as a plain region error) so callers see one typed outcome.
	if be := j.budget.Exceeded(); be != nil {
		code, err = ExitBudgetExceeded, be
	} else if err != nil && errors.Is(err, ErrBudgetExceeded) {
		code = ExitBudgetExceeded
	}
	j.finish(code, err)
}

func (j *Job) finish(code int, err error) {
	j.mu.Lock()
	j.finished = true
	j.code = code
	j.err = err
	j.wall = time.Since(j.started)
	j.mu.Unlock()
}

// ID is the job's process-wide identifier (the Pid analog).
func (j *Job) ID() int64 { return j.id }

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job: the script halts at its next statement boundary
// with exit status 130. Cancel after completion is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Running reports whether the job is still executing.
func (j *Job) Running() bool {
	select {
	case <-j.done:
		return false
	default:
		return true
	}
}

// Wait blocks until the job finishes and returns its exit status and
// execution error (shell semantics: a non-zero status with a nil error
// is a normal script outcome).
func (j *Job) Wait() (int, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.code, j.err
}

// Stats snapshots the job: live wall time while running, final exit
// status and interpreter metrics once done.
func (j *Job) Stats() JobStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStats{
		ID:     j.id,
		Script: truncateScript(j.src),
		Tenant: j.tenant,
		Start:  j.started,
		Limits: j.limits,
		Budget: j.budget.Usage(),
		Interp: j.live.StatsSnapshot(),
	}
	if j.finished {
		st.WallSeconds = j.wall.Seconds()
		st.ExitCode = j.code
		if j.err != nil {
			st.Err = j.err.Error()
		}
	} else {
		st.Running = true
		st.WallSeconds = time.Since(j.started).Seconds()
	}
	if j.runner != nil {
		ss := j.runner.Stats()
		st.Stream = &ss
	}
	return st
}

// truncateScript bounds the script text carried in stats rows, cutting
// on a rune boundary so the JSON stays valid UTF-8.
func truncateScript(src string) string {
	const max = 120
	if len(src) <= max {
		return src
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(src[cut]) {
		cut--
	}
	return src[:cut] + "…"
}

// trackJob registers a started job for Session.Jobs.
func (s *Session) trackJob(j *Job) {
	s.jobsMu.Lock()
	if s.jobs == nil {
		s.jobs = map[int64]*Job{}
	}
	s.jobs[j.id] = j
	s.jobsMu.Unlock()
}

func (s *Session) untrackJob(j *Job) {
	s.jobsMu.Lock()
	delete(s.jobs, j.id)
	s.jobsMu.Unlock()
}

// Jobs snapshots the session's currently-running jobs, ordered by ID —
// the live per-job rows behind pash-serve's /metrics.
func (s *Session) Jobs() []JobStats {
	s.jobsMu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobsMu.Unlock()
	out := make([]JobStats, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Stats())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
