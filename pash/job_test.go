package pash

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestJobStartWaitStats(t *testing.T) {
	s := NewSession(DefaultOptions(4))
	var out bytes.Buffer
	j, err := s.Start(context.Background(), "grep -c a | tr -d '\\n'",
		JobIO{Stdin: strings.NewReader("a\nb\nab\n"), Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() <= 0 {
		t.Errorf("job ID = %d", j.ID())
	}
	code, err := j.Wait()
	if err != nil || code != 0 {
		t.Fatalf("wait: code=%d err=%v", code, err)
	}
	if out.String() != "2" {
		t.Errorf("output = %q", out.String())
	}
	st := j.Stats()
	if st.Running || st.ExitCode != 0 || st.Interp.Regions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if j.Running() {
		t.Error("finished job reports running")
	}
	// Wait is idempotent.
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Errorf("second wait: code=%d err=%v", code, err)
	}
}

func TestJobCancel(t *testing.T) {
	s := NewSession(SequentialOptions())
	j, err := s.Start(context.Background(), "while true; do true; done", JobIO{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		j.Cancel()
		close(done)
	}()
	code, werr := j.Wait()
	<-done
	if code != 130 {
		t.Errorf("cancelled job exit = %d, want 130", code)
	}
	if !errors.Is(werr, context.Canceled) {
		t.Errorf("cancelled job err = %v", werr)
	}
}

// TestJobCancelDuringAdmission: cancellation while queued behind a
// saturated scheduler reports the same 130 contract as mid-script
// cancellation.
func TestJobCancelDuringAdmission(t *testing.T) {
	sched := NewScheduler(1)
	sched.SetMaxScripts(1)
	s := NewSession(SequentialOptions())
	s.UseScheduler(sched)

	// Occupy the single admission slot with a job blocked on stdin.
	pr, pw := io.Pipe()
	j1, err := s.Start(context.Background(), "wc -l", JobIO{Stdin: pr})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for sched.Stats().ActiveScripts != 1 {
		select {
		case <-deadline:
			t.Fatal("first job never admitted")
		case <-time.After(time.Millisecond):
		}
	}

	j2, err := s.Start(context.Background(), "echo hi", JobIO{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let it block in Admit
	j2.Cancel()
	code, werr := j2.Wait()
	if code != 130 || !errors.Is(werr, context.Canceled) {
		t.Errorf("admission-cancelled job: code=%d err=%v", code, werr)
	}

	pw.Close()
	if code, err := j1.Wait(); err != nil || code != 0 {
		t.Errorf("first job: code=%d err=%v", code, err)
	}
}

func TestJobContextCancellation(t *testing.T) {
	s := NewSession(SequentialOptions())
	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Start(ctx, "while true; do true; done", JobIO{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	code, werr := j.Wait()
	if code != 130 || !errors.Is(werr, context.Canceled) {
		t.Errorf("ctx-cancelled job: code=%d err=%v", code, werr)
	}
}

func TestSessionJobsLive(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	// The script blocks reading stdin until the pipe closes, keeping
	// the job observable in Jobs().
	pr, pw := io.Pipe()
	var out bytes.Buffer
	j, err := s.Start(context.Background(), "wc -l", JobIO{Stdin: pr, Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		jobs := s.Jobs()
		if len(jobs) == 1 && jobs[0].ID == j.ID() && jobs[0].Running {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("running job never appeared in Jobs(): %+v", jobs)
		case <-time.After(time.Millisecond):
		}
	}
	pw.Write([]byte("x\ny\n"))
	pw.Close()
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Fatalf("wait: code=%d err=%v", code, err)
	}
	if got := strings.TrimSpace(out.String()); got != "2" {
		t.Errorf("output = %q", got)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("finished job still tracked: %+v", jobs)
	}
}

func TestStartParseErrorSynchronous(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	if _, err := s.Start(context.Background(), "for do done (", JobIO{}); err == nil {
		t.Error("parse error not reported by Start")
	}
	// The Run wrapper keeps the historical 127 status for parse errors.
	code, err := s.Run(context.Background(), "for do done (", nil, io.Discard, io.Discard)
	if err == nil || code != 127 {
		t.Errorf("Run on bad syntax: code=%d err=%v", code, err)
	}
}

func TestStartWithOptions(t *testing.T) {
	s := NewSession(DefaultOptions(8))
	input := strings.Repeat("b\na\nc\n", 400)
	run := func(opts ...StartOption) string {
		var out bytes.Buffer
		j, err := s.Start(context.Background(), "sort | uniq -c",
			JobIO{Stdin: strings.NewReader(input), Stdout: &out}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if code, err := j.Wait(); err != nil || code != 0 {
			t.Fatalf("code=%d err=%v", code, err)
		}
		return out.String()
	}
	def := run()
	seq := run(WithOptions(SequentialOptions()))
	if def != seq {
		t.Errorf("per-job width override diverged:\n%q\nvs\n%q", def, seq)
	}
	// Every planner option set computes the same bytes from its own plan
	// (same region fingerprint, a different plan-cache key each).
	before := s.PlanCacheStats().Misses
	sets := map[string]func(*Options){
		"split=general": func(o *Options) { o.SplitMode = SplitGeneral },
		"split=rr":      func(o *Options) { o.SplitMode = SplitRoundRobin },
		"fusion=off":    func(o *Options) { o.DisableFusion = true },
		"input-aware":   func(o *Options) { o.InputAwareSplit = true },
		"blocking":      func(o *Options) { o.Eager, o.BlockingEagerBytes = EagerBlocking, 1<<16 },
	}
	for name, set := range sets {
		o := DefaultOptions(8)
		set(&o)
		if got := run(WithOptions(o)); got != seq {
			t.Errorf("%s diverged:\n%q\nvs\n%q", name, got, seq)
		}
	}
	if got := s.PlanCacheStats().Misses - before; got != int64(len(sets)) {
		t.Errorf("%d option sets planned %d new plans, want one each", len(sets), got)
	}
	// The override is per-job: the session still plans at width 8.
	if got := s.Options().Width; got != 8 {
		t.Errorf("session width mutated by WithOptions: %d", got)
	}
}
