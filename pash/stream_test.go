package pash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/stream"
)

// chunkReader yields data in random-sized chunks, simulating a bursty
// socket. Window boundaries must not depend on this chunking.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + c.rng.Intn(len(c.data))
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// emitRecorder captures each cumulative emission (one Write per
// window) separately.
type emitRecorder struct {
	mu    sync.Mutex
	emits []string
}

func (e *emitRecorder) Write(p []byte) (int, error) {
	e.mu.Lock()
	e.emits = append(e.emits, string(p))
	e.mu.Unlock()
	return len(p), nil
}

func (e *emitRecorder) snapshot() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.emits...)
}

// cutWindows replicates the windower's deterministic size-trigger
// boundaries: each window ends at the first line end at or past
// maxBytes; the remainder is the final window.
func cutWindows(in []byte, maxBytes int) [][]byte {
	var wins [][]byte
	rest := in
	for len(rest) >= maxBytes {
		i := bytes.IndexByte(rest[maxBytes-1:], '\n')
		if i < 0 {
			break
		}
		end := maxBytes - 1 + i
		wins = append(wins, rest[:end+1])
		rest = rest[end+1:]
	}
	if len(rest) > 0 {
		wins = append(wins, rest)
	}
	return wins
}

func randomLines(rng *rand.Rand, n int) []byte {
	words := []string{"ab", "abc", "b", "cd", "ab ab", "zz top", "abba"}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, words[rng.Intn(len(words))])
	}
	return b.Bytes()
}

func batchRun(t *testing.T, script string, input []byte) string {
	t.Helper()
	s := NewSession(SequentialOptions())
	var out bytes.Buffer
	code, err := s.Run(context.Background(), script, bytes.NewReader(input), &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("batch %q: code=%d err=%v", script, code, err)
	}
	return out.String()
}

// TestStreamCumulativeMatchesBatchPrefix is the windowed-aggregation
// property: for associative tails (wc -l, grep -c, uniq -c), every
// cumulative emission over a randomly chunked stream equals the batch
// result over the same prefix of windows, at widths 1 and 8.
func TestStreamCumulativeMatchesBatchPrefix(t *testing.T) {
	scripts := []string{
		"wc -l",
		"grep -c ab",
		"tr a-z A-Z | uniq -c",
		"grep b | wc -l",
	}
	for _, width := range []int{1, 8} {
		for si, script := range scripts {
			t.Run(fmt.Sprintf("w%d/%s", width, script), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41*width + si)))
				input := randomLines(rng, 300)
				maxBytes := 64 + rng.Intn(512)
				wins := cutWindows(input, maxBytes)

				s := NewSession(DefaultOptions(width))
				rec := &emitRecorder{}
				j, err := s.Start(context.Background(), script, JobIO{Stdout: rec, Stderr: os.Stderr},
					WithStreamInput(StreamConfig{
						Reader:      &chunkReader{data: input, rng: rng},
						Interval:    time.Hour,
						WindowBytes: int64(maxBytes),
					}))
				if err != nil {
					t.Fatal(err)
				}
				code, err := j.Wait()
				if err != nil || code != 0 {
					t.Fatalf("stream: code=%d err=%v", code, err)
				}

				emits := rec.snapshot()
				if len(emits) != len(wins) {
					t.Fatalf("emissions = %d, want one per window (%d)", len(emits), len(wins))
				}
				var prefix []byte
				for k, win := range wins {
					prefix = append(prefix, win...)
					want := batchRun(t, script, prefix)
					if emits[k] != want {
						t.Fatalf("window %d: emission %q != batch over prefix %q", k, emits[k], want)
					}
				}
				st := j.Stats()
				if st.Stream == nil || st.Stream.Emit != "cumulative" {
					t.Fatalf("stream stats missing or wrong emit: %+v", st.Stream)
				}
				if st.Stream.Windows != int64(len(wins)) || st.Stream.Bytes != int64(len(input)) {
					t.Errorf("stream stats windows=%d bytes=%d, want %d/%d",
						st.Stream.Windows, st.Stream.Bytes, len(wins), len(input))
				}
			})
		}
	}
}

// TestStreamDeltaMatchesBatch: an all-stateless pipeline's window
// outputs concatenate to exactly the batch output.
func TestStreamDeltaMatchesBatch(t *testing.T) {
	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 * width)))
			input := randomLines(rng, 400)
			s := NewSession(DefaultOptions(width))
			var out bytes.Buffer
			j, err := s.Start(context.Background(), "grep ab | tr a-z A-Z", JobIO{Stdout: &out},
				WithStreamInput(StreamConfig{
					Reader:      &chunkReader{data: input, rng: rng},
					Interval:    time.Hour,
					WindowBytes: 256,
				}))
			if err != nil {
				t.Fatal(err)
			}
			if code, err := j.Wait(); err != nil || code != 0 {
				t.Fatalf("stream: code=%d err=%v", code, err)
			}
			want := batchRun(t, "grep ab | tr a-z A-Z", input)
			if out.String() != want {
				t.Errorf("delta stream diverged from batch:\nstream %q\nbatch  %q", out.String(), want)
			}
		})
	}
}

// TestStreamTopKFold: the two-stage sort|head fold stays sound across
// windows.
func TestStreamTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var input bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&input, "%04d line\n", rng.Intn(10000))
	}
	script := "sort | head -n 5"
	rec := &emitRecorder{}
	s := NewSession(DefaultOptions(4))
	j, err := s.Start(context.Background(), script, JobIO{Stdout: rec},
		WithStreamInput(StreamConfig{
			Reader:      &chunkReader{data: input.Bytes(), rng: rng},
			Interval:    time.Hour,
			WindowBytes: 512,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Fatalf("stream: code=%d err=%v", code, err)
	}
	emits := rec.snapshot()
	if len(emits) == 0 {
		t.Fatal("no emissions")
	}
	wins := cutWindows(input.Bytes(), 512)
	var prefix []byte
	for k, win := range wins {
		prefix = append(prefix, win...)
		if want := batchRun(t, script, prefix); emits[k] != want {
			t.Fatalf("window %d: top-k emission %q != batch %q", k, emits[k], want)
		}
	}
}

// TestStreamNotStreamable: Start refuses, synchronously and before any
// window runs, a script that cannot stream — including a pipeline that
// reads no stdin — and a StreamConfig the job could not run.
func TestStreamNotStreamable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(DefaultOptions(2))
	s.Dir = dir
	for _, script := range []string{
		"grep a && grep b", // not a plain pipeline
		"sort | uniq -c",   // two-stage fold would be unsound
		"wc -l > out.txt",  // stream owns stdout
		"cd /tmp",          // builtin
		"exec cat",         // builtin the interpreter refuses
		"grep a; grep b",   // two statements
		"x=1 grep a",       // assignment prefix
		"cat f | wc -l",    // reads no stdin
		"wc -l f",          // reads no stdin
	} {
		j, err := s.Start(context.Background(), script, JobIO{},
			WithStreamInput(StreamConfig{Reader: strings.NewReader("a\n")}))
		if j != nil || !errors.Is(err, ErrNotStreamable) {
			t.Errorf("%q: Start = %v, %v; want ErrNotStreamable", script, j, err)
		}
	}

	// A checkpoint a delta job left, which a cumulative job cannot resume.
	if err := stream.SaveCheckpoint(filepath.Join(dir, "delta.ckpt"), &stream.Checkpoint{Emit: stream.EmitName(false)}); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]StreamConfig{
		"no source":              {},
		"two sources":            {FollowPath: "f", Reader: strings.NewReader("a\n")},
		"resume, no checkpoint":  {Reader: strings.NewReader("a\n"), Resume: true},
		"other emit mode resume": {Reader: strings.NewReader("a\n"), CheckpointPath: "delta.ckpt", Resume: true},
	} {
		if j, err := s.Start(context.Background(), "wc -l", JobIO{}, WithStreamInput(sc)); j != nil || err == nil {
			t.Errorf("%s: Start = %v, %v; want a refusal", name, j, err)
		}
	}
}

// TestStreamSandbox: a stream is planned and opened inside its job's
// jail, as TestJobSandbox holds for scripts. A command substitution that
// reads outside it fails Start and leaks nothing; relative FollowPath
// and CheckpointPath resolve under Session.Dir, and a sandboxed job
// refuses paths that leave it.
func TestStreamSandbox(t *testing.T) {
	outside := t.TempDir()
	if err := os.WriteFile(filepath.Join(outside, "secret.txt"), []byte("needle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "jail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "app.log"), []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(DefaultOptions(2))
	s.Dir = dir
	jailed := WithLimits(JobLimits{Sandbox: true})

	var out bytes.Buffer
	if j, err := s.Start(context.Background(), "grep $(cat ../secret.txt)", JobIO{Stdout: &out},
		WithStreamInput(StreamConfig{Reader: strings.NewReader("needle\nhay\n")}), jailed); err == nil {
		code, werr := j.Wait()
		t.Errorf("command substitution escaped the jail: Start ok, exit %d, %v", code, werr)
	}
	if strings.Contains(out.String(), "needle") {
		t.Errorf("leaked %q", out.String())
	}

	for _, sc := range []StreamConfig{
		{FollowPath: "../secret.txt"},
		{FollowPath: filepath.Join(outside, "secret.txt")},
		{FollowPath: "app.log", CheckpointPath: "../job.ckpt"},
		{Reader: strings.NewReader("a\n"), CheckpointPath: filepath.Join(outside, "job.ckpt")},
	} {
		if j, err := s.Start(context.Background(), "wc -l", JobIO{}, WithStreamInput(sc), jailed); j != nil || !errors.Is(err, commands.ErrJailEscape) {
			t.Errorf("%+v: Start = %v, %v; want ErrJailEscape", sc, j, err)
		}
	}

	rec := &emitRecorder{}
	j, err := s.Start(context.Background(), "wc -l", JobIO{Stdout: rec}, jailed, WithStreamInput(StreamConfig{
		FollowPath: "app.log", CheckpointPath: "job.ckpt", Interval: time.Hour, WindowBytes: 1, Poll: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := j.Stats()
		return st.Stream != nil && st.Stream.CheckpointSeq >= 2
	})
	j.Cancel()
	j.Wait()
	if emits := rec.snapshot(); len(emits) < 2 || emits[len(emits)-1] != "2\n" {
		t.Errorf("followed app.log under Session.Dir: emitted %q, want a running count ending in 2", emits)
	}
	if _, err := os.Stat(filepath.Join(dir, "job.ckpt")); err != nil {
		t.Errorf("checkpoint not under Session.Dir: %v", err)
	}
}

// TestStreamFollowCheckpointResume is the failover contract: a job
// over a growing file is killed between windows and a new job resumes
// from the checkpoint, re-reading only the post-checkpoint suffix and
// continuing the emission sequence exactly where the first job left it.
func TestStreamFollowCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "app.log")
	ckpt := filepath.Join(dir, "job.ckpt")

	rng := rand.New(rand.NewSource(5))
	input := randomLines(rng, 400)
	const winBytes = 256
	wins := cutWindows(input, winBytes)
	// Only size-triggered windows run (interval is huge); the tail that
	// never fills a window stays pending, so use the full-window count.
	full := len(wins)
	if int64(len(wins[full-1])) < winBytes {
		full--
	}
	if full < 4 {
		t.Fatalf("test input too small: %d full windows", full)
	}
	// Reference: cumulative batch results per window prefix.
	script := "grep -c ab"
	var want []string
	var prefix []byte
	for k := 0; k < full; k++ {
		prefix = append(prefix, wins[k]...)
		want = append(want, batchRun(t, script, prefix))
		_ = k
	}

	// Phase 1: write enough for the first half of the windows, run a
	// job until it has checkpointed all of them, then cancel it.
	half := full / 2
	var phase1 []byte
	for k := 0; k < half; k++ {
		phase1 = append(phase1, wins[k]...)
	}
	if err := os.WriteFile(log, phase1, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(DefaultOptions(2))
	rec1 := &emitRecorder{}
	j1, err := s.Start(context.Background(), script, JobIO{Stdout: rec1},
		WithStreamInput(StreamConfig{
			FollowPath:     log,
			Interval:       time.Hour,
			WindowBytes:    winBytes,
			CheckpointPath: ckpt,
			Poll:           5 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := j1.Stats()
		return st.Stream != nil && st.Stream.CheckpointSeq >= int64(half)
	})
	j1.Cancel()
	if code, _ := j1.Wait(); code != 130 {
		t.Fatalf("cancelled stream job exited %d, want 130", code)
	}

	// Phase 2: append the rest and resume from the checkpoint.
	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rest []byte
	for k := half; k < len(wins); k++ {
		rest = append(rest, wins[k]...)
	}
	if _, err := f.Write(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec2 := &emitRecorder{}
	j2, err := s.Start(context.Background(), script, JobIO{Stdout: rec2},
		WithStreamInput(StreamConfig{
			FollowPath:     log,
			Interval:       time.Hour,
			WindowBytes:    winBytes,
			CheckpointPath: ckpt,
			Resume:         true,
			Poll:           5 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := j2.Stats()
		return st.Stream != nil && st.Stream.Windows >= int64(full)
	})
	st2 := j2.Stats()
	j2.Cancel()
	j2.Wait()

	got := append(rec1.snapshot(), rec2.snapshot()...)
	if len(got) != full {
		t.Fatalf("emissions = %d, want %d", len(got), full)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("window %d: emission %q != uninterrupted %q", k, got[k], want[k])
		}
	}
	if st2.Stream == nil || !st2.Stream.Resumed {
		t.Fatal("second job did not report a resume")
	}
	// Replays only the post-checkpoint suffix: the resumed job's source
	// bytes are exactly the windows after the checkpoint, not phase 1.
	var suffix int64
	for k := half; k < full; k++ {
		suffix += int64(len(wins[k]))
	}
	if st2.Stream.Bytes != suffix {
		t.Errorf("resumed job read %d bytes, want only the %d-byte suffix", st2.Stream.Bytes, suffix)
	}
}

// TestStreamBackpressurePausesSource: a tiny MaxPipeMemory throttles
// intake (pauses counted) instead of killing the job, and the stream's
// output is still exact.
func TestStreamBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	input := randomLines(rng, 2000)
	s := NewSession(DefaultOptions(2))
	rec := &emitRecorder{}
	j, err := s.Start(context.Background(), "wc -l", JobIO{Stdout: rec},
		WithStreamInput(StreamConfig{
			Reader:      &chunkReader{data: input, rng: rng},
			Interval:    time.Hour,
			WindowBytes: 512,
		}),
		WithLimits(JobLimits{MaxPipeMemory: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Fatalf("stream under backpressure: code=%d err=%v", code, err)
	}
	emits := rec.snapshot()
	if len(emits) == 0 {
		t.Fatal("no emissions")
	}
	if got, want := emits[len(emits)-1], batchRun(t, "wc -l", input); got != want {
		t.Errorf("final count %q != batch %q", got, want)
	}
	if st := j.Stats(); st.Stream == nil || st.Stream.Pauses == 0 {
		t.Errorf("expected backpressure pauses, got %+v", j.Stats().Stream)
	}
}

// TestStreamHoldsNoWidthBetweenWindows: a window is granted its width
// tokens for as long as it runs, like any region, so a stream parked
// between windows holds none, and a batch region asking then is granted
// its full width. Asserted on the scheduler's counters and the bytes,
// never on a clock.
func TestStreamHoldsNoWidthBetweenWindows(t *testing.T) {
	sched := NewScheduler(4)
	s := NewSession(DefaultOptions(4))
	s.UseScheduler(sched)
	pr, pw := io.Pipe()
	defer pw.Close()
	rec := &emitRecorder{}
	j, err := s.Start(context.Background(), "tr a-z A-Z", JobIO{Stdout: rec},
		WithStreamInput(StreamConfig{Reader: pr, Interval: time.Hour, WindowBytes: 64}))
	if err != nil {
		t.Fatal(err)
	}
	window := strings.Repeat("ab cd ef\n", 8) // 72 bytes: one size-triggered window
	if _, err := io.WriteString(pw, window); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := j.Stats()
		return st.Stream != nil && st.Stream.Windows == 1
	})

	// The source is parked in Read: the job is between windows.
	st := sched.Stats()
	if st.TokensInUse != 0 {
		t.Errorf("between windows the stream holds %d width tokens, want 0", st.TokensInUse)
	}
	if st.WidthAsks != 1 || st.WidthTrims != 0 {
		t.Errorf("the window asked %d times, trimmed %d; want one grant in full", st.WidthAsks, st.WidthTrims)
	}
	if w, release := sched.AcquireWidth(4); w != 4 {
		t.Errorf("a batch region asking for 4 between windows is granted %d", w)
	} else {
		release()
	}
	want := dfg.WidthPlan{Asked: 4, Planned: 4}
	if js := j.Stats().Interp; js.Regions != 1 || js.Widths.N[dfg.WidthAsked] != 1 || js.Widths.Last[dfg.WidthAsked] != want {
		t.Errorf("job counted %d regions, widths %v; want one window at %v", js.Regions, js.Widths, want)
	}

	pw.Close()
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Fatalf("stream: code=%d err=%v", code, err)
	}
	if got := strings.Join(rec.snapshot(), ""); got != strings.ToUpper(window) {
		t.Errorf("emitted %q, want %q", got, strings.ToUpper(window))
	}
	if st := sched.Stats(); st.TokensInUse != 0 {
		t.Errorf("the finished stream left %d width tokens taken", st.TokensInUse)
	}
}

// TestJobStatsLiveBytes: a *running* batch job reports non-zero
// bytes/chunks moved (the zeros-until-Wait bug).
func TestJobStatsLiveBytes(t *testing.T) {
	s := NewSession(DefaultOptions(4))
	pr, pw := io.Pipe()
	j, err := s.Start(context.Background(), "grep ab | tr a-z A-Z", JobIO{Stdin: pr, Stdout: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte("ab cd ef gh\n"), 1024)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := pw.Write(line); err != nil {
				return
			}
		}
	}()
	waitFor(t, 10*time.Second, func() bool {
		st := j.Stats()
		return st.Running && st.Interp.BytesMoved > 0 && st.Interp.ChunksMoved > 0
	})
	pw.Close()
	if code, err := j.Wait(); err != nil || code != 0 {
		t.Fatalf("job: code=%d err=%v", code, err)
	}
	if st := j.Stats(); st.Interp.BytesMoved == 0 {
		t.Error("finished job lost its traffic counters")
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
