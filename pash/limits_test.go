package pash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commands"
)

// TestJobWallTimeout: a runaway script is cancelled at its wall budget
// with the distinct budget exit code, not the generic cancellation 130.
func TestJobWallTimeout(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	job, err := s.Start(context.Background(), "while true; do true; done", JobIO{},
		WithLimits(JobLimits{WallTimeout: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("wall budget never fired")
	}
	code, werr := job.Wait()
	if code != ExitBudgetExceeded {
		t.Errorf("exit code = %d, want %d", code, ExitBudgetExceeded)
	}
	if !errors.Is(werr, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", werr)
	}
	var be *BudgetError
	if !errors.As(werr, &be) || be.Resource != "wall-clock" {
		t.Errorf("breach = %+v, want wall-clock", be)
	}
	st := job.Stats()
	if st.Limits.WallTimeout != 50*time.Millisecond {
		t.Errorf("stats do not echo the configured limits: %+v", st.Limits)
	}
}

// TestJobOutputBudget: a job flooding stdout is stopped at its byte
// budget; what was delivered before the breach stays delivered.
func TestJobOutputBudget(t *testing.T) {
	s := NewSession(DefaultOptions(2))
	var out bytes.Buffer
	job, err := s.Start(context.Background(), "seq 1000000", JobIO{Stdout: &out},
		WithLimits(JobLimits{MaxOutputBytes: 4096, WallTimeout: 10 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	code, werr := job.Wait()
	if code != ExitBudgetExceeded || !errors.Is(werr, ErrBudgetExceeded) {
		t.Fatalf("code=%d err=%v, want %d + ErrBudgetExceeded", code, werr, ExitBudgetExceeded)
	}
	var be *BudgetError
	if !errors.As(werr, &be) || be.Resource != "output-bytes" {
		t.Errorf("breach = %+v, want output-bytes", be)
	}
	// Nothing past the budget may reach the sink (a whole write is
	// refused when charging it would cross the line, so fewer bytes than
	// the budget can arrive — never more).
	if out.Len() > 4096 {
		t.Errorf("delivered %d bytes past a 4096-byte budget", out.Len())
	}
	if u := job.Stats().Budget; u.OutputBytes <= 0 {
		t.Errorf("budget usage not surfaced: %+v", u)
	}
}

// TestJobPipeMemoryBudget: queued pipe payload is bounded per job — a
// pipeline moving far more data than the budget breaches with the typed
// error instead of hoarding pooled blocks.
func TestJobPipeMemoryBudget(t *testing.T) {
	s := NewSession(DefaultOptions(8))
	job, err := s.Start(context.Background(), "seq 300000 | sort | wc -l", JobIO{Stdout: io.Discard},
		WithLimits(JobLimits{MaxPipeMemory: 512, WallTimeout: 10 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	code, werr := job.Wait()
	if code != ExitBudgetExceeded || !errors.Is(werr, ErrBudgetExceeded) {
		t.Fatalf("code=%d err=%v, want %d + ErrBudgetExceeded", code, werr, ExitBudgetExceeded)
	}
	var be *BudgetError
	if !errors.As(werr, &be) || be.Resource != "pipe-memory" {
		t.Errorf("breach = %+v, want pipe-memory", be)
	}
}

// TestRemoteRetentionChargesBudget: the input a remote session keeps for
// replay is job memory. A distributed sort whose shards retain four
// times the pipe budget stops with the typed breach — and, the workers
// being fine, without a failover — while a budget that holds the
// retained input plus the sorted output in flight (twice the input)
// runs byte-identical to local.
func TestRemoteRetentionChargesBudget(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; sb.Len() < 4<<20; i++ {
		fmt.Fprintf(&sb, "Line %d of the Retained Input, %x\n", i*7919%100003, i)
	}
	input := sb.Len()
	if err := os.WriteFile(filepath.Join(dir, "big.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	script := "cat big.txt | tr A-Z a-z | sort"
	s := NewSession(DefaultOptions(2))
	s.Dir = dir
	var want bytes.Buffer
	if code, err := s.Run(context.Background(), script, strings.NewReader(""), &want, io.Discard); err != nil || code != 0 {
		t.Fatalf("local: code=%d err=%v", code, err)
	}
	run := func(budget int64) (int, error, string, []WorkerStats) {
		pool := NewWorkerPool(startStreamWorker(t, dir, fmt.Sprintf("b%d-1.sock", budget)), startStreamWorker(t, dir, fmt.Sprintf("b%d-2.sock", budget)))
		var out bytes.Buffer
		job, err := s.Start(context.Background(), script, JobIO{Stdout: &out},
			WithWorkers(pool), WithLimits(JobLimits{MaxPipeMemory: budget, WallTimeout: 20 * time.Second}))
		if err != nil {
			t.Fatal(err)
		}
		code, werr := job.Wait()
		return code, werr, out.String(), pool.Stats()
	}

	code, err, _, stats := run(int64(input) / 4)
	var be *BudgetError
	if code != ExitBudgetExceeded || !errors.As(err, &be) || be.Resource != "pipe-memory" {
		t.Errorf("input 4x the budget: code=%d err=%v, want %d and a pipe-memory BudgetError", code, err, ExitBudgetExceeded)
	}
	for _, st := range stats {
		if st.Failures != 0 || st.Redispatched != 0 || st.RedispatchedRemote != 0 {
			t.Errorf("budget breach treated as a worker death: %+v", st)
		}
	}

	code, err, out, stats := run(2 * int64(input))
	if code != 0 || err != nil || out != want.String() {
		t.Errorf("budget = input: code=%d err=%v, output %d bytes (local %d)", code, err, len(out), want.Len())
	}
	for _, st := range stats {
		if st.Requests == 0 {
			t.Errorf("worker %s got no shard: the budget test did not ship", st.Name)
		}
	}
}

// TestJobMaxProcsStaysCorrect: capping a job's width must degrade its
// parallelism, never its output.
func TestJobMaxProcsStaysCorrect(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		sb.WriteString("gamma beta alpha delta\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	script := "cat in.txt | tr -s ' ' '\\n' | sort | uniq -c"

	ref := NewSession(SequentialOptions())
	ref.Dir = dir
	var want bytes.Buffer
	if code, err := ref.Run(context.Background(), script, strings.NewReader(""), &want, io.Discard); err != nil || code != 0 {
		t.Fatalf("reference: code=%d err=%v", code, err)
	}

	s := NewSession(DefaultOptions(8))
	s.Dir = dir
	for _, cap := range []int{1, 2, 8} {
		var out bytes.Buffer
		job, err := s.Start(context.Background(), script, JobIO{Stdout: &out},
			WithLimits(JobLimits{MaxProcs: cap}))
		if err != nil {
			t.Fatal(err)
		}
		if code, err := job.Wait(); err != nil || code != 0 {
			t.Fatalf("MaxProcs=%d: code=%d err=%v", cap, code, err)
		}
		if out.String() != want.String() {
			t.Errorf("MaxProcs=%d diverged from sequential", cap)
		}
	}
}

// TestJobSandbox: a sandboxed job sees its working directory and
// nothing else — absolute paths, ".." escapes, and cd out of the jail
// all fail without reaching the host filesystem.
func TestJobSandbox(t *testing.T) {
	outside := t.TempDir()
	if err := os.WriteFile(filepath.Join(outside, "secret.txt"), []byte("secret\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "jail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ok.txt"), []byte("inside\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(DefaultOptions(2))
	s.Dir = dir

	run := func(script string) (int, error, string) {
		t.Helper()
		var out bytes.Buffer
		job, err := s.Start(context.Background(), script, JobIO{Stdout: &out},
			WithLimits(JobLimits{Sandbox: true, WallTimeout: 10 * time.Second}))
		if err != nil {
			t.Fatal(err)
		}
		code, werr := job.Wait()
		return code, werr, out.String()
	}

	// Inside the jail: normal operation.
	if code, err, out := run("cat ok.txt | tr a-z A-Z"); code != 0 || err != nil || out != "INSIDE\n" {
		t.Errorf("in-jail read: code=%d err=%v out=%q", code, err, out)
	}
	// Escapes fail and leak nothing.
	for _, script := range []string{
		"cat ../secret.txt",
		"cat " + filepath.Join(outside, "secret.txt"),
		"cd .. ; cat secret.txt",
		"cd /; cat etc/hostname",
		"tr a-z A-Z < ../secret.txt",
	} {
		code, _, out := run(script)
		if code == 0 {
			t.Errorf("%q: escaped the sandbox (exit 0)", script)
		}
		if strings.Contains(out, "secret") {
			t.Errorf("%q: leaked jailed content: %q", script, out)
		}
	}
	// Writes outside are refused too (and must not create the file).
	if code, _, _ := run("echo x > ../created.txt"); code == 0 {
		t.Error("redirect outside the jail succeeded")
	}
	if _, err := os.Stat(filepath.Join(outside, "created.txt")); !os.IsNotExist(err) {
		t.Errorf("sandboxed redirect created a file outside the jail: %v", err)
	}
}

// TestJobSandboxHoldsWithWorkerPool: the jail is the job's, not one
// executor's — wherever the plan sends the read (the coordinator's edge,
// a worker's file range, the pool's local rung), a file outside Dir fails
// with ErrJailEscape and no byte of it comes out. The profiling executor
// of a measuring run is checked where it is switched on
// (core.TestMeasuringRunStaysJailed).
func TestJobSandboxHoldsWithWorkerPool(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret.txt")
	if err := os.WriteFile(secret, []byte(strings.Repeat("secret\n", 4096)), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "jail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	pool := func(shared bool, addrs ...string) *WorkerPool {
		p := NewWorkerPool(addrs...)
		p.SetSharedFS(shared)
		p.SetDialTimeout(200 * time.Millisecond)
		p.SetRetryPolicy(1, time.Millisecond, time.Millisecond)
		return p
	}
	worker := startStreamWorker(t, dir, "w.sock")
	for _, cell := range []struct {
		name string
		opts []StartOption
	}{
		{"no pool", nil},
		{"pool", []StartOption{WithWorkers(pool(false, worker))}},
		{"shared-fs pool", []StartOption{WithWorkers(pool(true, worker))}},
		{"shared-fs pool, dead worker", []StartOption{WithWorkers(pool(true, "unix:"+filepath.Join(dir, "dead.sock")))}},
	} {
		s := NewSession(DefaultOptions(2))
		s.Dir = dir
		var out bytes.Buffer
		opts := append(cell.opts, WithLimits(JobLimits{Sandbox: true, WallTimeout: 10 * time.Second}))
		job, err := s.Start(context.Background(), "cat "+secret+" | tr a-z A-Z | head -n 1", JobIO{Stdout: &out}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if code, err := job.Wait(); code == 0 || !errors.Is(err, commands.ErrJailEscape) {
			t.Errorf("%s: code=%d err=%v, want ErrJailEscape", cell.name, code, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: leaked %d bytes from outside the jail: %q", cell.name, out.Len(), out.String())
		}
	}
}

// panickySpec registers a command whose implementation and fusion
// kernel both panic — the stand-in for a buggy user extension.
func panickySpec() CommandSpec {
	return CommandSpec{
		Name: "panicky",
		Run: func(args []string, stdin io.Reader, stdout io.Writer) error {
			io.Copy(io.Discard, stdin)
			panic("extension bug: nil map write")
		},
		Annotation: StdinStdout(ClassStateless),
		Kernel: func(args []string) (Kernel, bool) {
			return &panicKernel{}, true
		},
	}
}

type panicKernel struct{}

func (k *panicKernel) Apply(out, in []byte) []byte { panic("extension kernel bug") }
func (k *panicKernel) Finish(out []byte) []byte    { return out }
func (k *panicKernel) Status() error               { return nil }

// TestPanickingExtensionFailsOnlyItsJob is the containment acceptance
// test: a user extension that panics fails its own job with a typed,
// stack-carrying error while concurrent jobs in the same session (and
// the process) are untouched.
func TestPanickingExtensionFailsOnlyItsJob(t *testing.T) {
	before := Panics().Count
	s := NewSession(DefaultOptions(4))
	if err := s.Register(panickySpec()); err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	healthy := make([]string, rounds)
	var panicErrs [rounds]error
	for i := 0; i < rounds; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := s.Start(context.Background(), "seq 100 | panicky | wc -l",
				JobIO{Stdin: strings.NewReader(""), Stdout: io.Discard})
			if err != nil {
				panicErrs[i] = err
				return
			}
			_, panicErrs[i] = job.Wait()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			job, err := s.Start(context.Background(), "seq 1000 | grep 7 | wc -l", JobIO{Stdout: &out})
			if err != nil {
				t.Error(err)
				return
			}
			if code, err := job.Wait(); code != 0 || err != nil {
				t.Errorf("healthy job round %d: code=%d err=%v", i, code, err)
			}
			healthy[i] = out.String()
		}()
	}
	wg.Wait()

	for i, err := range panicErrs {
		if err == nil {
			t.Fatalf("round %d: panicking job reported success", i)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("round %d: error does not identify the panic: %v", i, err)
		}
	}
	for i, out := range healthy {
		if out != healthy[0] {
			t.Errorf("healthy job output diverged in round %d: %q vs %q", i, out, healthy[0])
		}
	}
	if strings.TrimSpace(healthy[0]) != "271" {
		t.Errorf("healthy output = %q, want 271 (numbers 1..1000 containing a 7)", healthy[0])
	}

	st := Panics()
	if st.Count < before+int64(rounds) {
		t.Errorf("panic ring recorded %d, want >= %d", st.Count-before, rounds)
	}
	found := false
	for _, rec := range st.Recent {
		if strings.Contains(rec.Value, "extension") && rec.Stack != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no extension panic with a stack in the ring: %+v", st.Recent)
	}
}
