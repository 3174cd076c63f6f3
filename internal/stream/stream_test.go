package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// chunked wraps a reader so every Read returns an arbitrary small
// prefix, exercising chunking-independence.
type chunked struct {
	r   io.Reader
	rng *rand.Rand
}

func (c *chunked) Read(p []byte) (int, error) {
	n := 1 + c.rng.Intn(97)
	if n > len(p) {
		n = len(p)
	}
	return c.r.Read(p[:n])
}

func randomText(rng *rand.Rand, lines int) []byte {
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		n := rng.Intn(40)
		for j := 0; j < n; j++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// collectWindows drains a windower to the end of its source, copying
// each window: Next may reuse the bytes of the windows it returned.
func collectWindows(t *testing.T, w *windower) [][]byte {
	t.Helper()
	defer w.stop()
	var wins [][]byte
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		win, final, err := w.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(win) > 0 {
			wins = append(wins, bytes.Clone(win))
		}
		if final {
			return wins
		}
	}
}

func TestWindowerSizeTriggerIsChunkingIndependent(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(1)), 400)
	const maxBytes = 512

	var ref [][]byte
	for trial := 0; trial < 4; trial++ {
		var r io.Reader = bytes.NewReader(input)
		if trial > 0 {
			r = &chunked{r: r, rng: rand.New(rand.NewSource(int64(trial)))}
		}
		w := newWindower(NewReaderSource(r), time.Hour, maxBytes, 0, 0)
		wins := collectWindows(t, w)
		if got := bytes.Join(wins, nil); !bytes.Equal(got, input) {
			t.Fatalf("trial %d: windows do not reassemble the input (%d vs %d bytes)", trial, len(got), len(input))
		}
		for i, win := range wins[:len(wins)-1] {
			if int64(len(win)) < maxBytes {
				t.Errorf("trial %d: non-final window %d is %d bytes, under the %d trigger", trial, i, len(win), maxBytes)
			}
			if win[len(win)-1] != '\n' {
				t.Errorf("trial %d: window %d is not newline-aligned", trial, i)
			}
		}
		if trial == 0 {
			ref = wins
		} else if len(wins) != len(ref) {
			t.Fatalf("trial %d: %d windows, reference has %d — boundaries depend on read chunking", trial, len(wins), len(ref))
		} else {
			for i := range wins {
				if !bytes.Equal(wins[i], ref[i]) {
					t.Fatalf("trial %d: window %d differs from reference", trial, i)
				}
			}
		}
		if w.Boundary() != int64(len(input)) {
			t.Errorf("trial %d: boundary = %d, want %d", trial, w.Boundary(), len(input))
		}
	}
}

func TestWindowerTimeTriggerAndFinalCarry(t *testing.T) {
	pr, pw := io.Pipe()
	w := newWindower(NewReaderSource(pr), 20*time.Millisecond, 0, 0, 0)
	defer w.stop()

	go pw.Write([]byte("complete line\npartial"))
	ctx := context.Background()
	win, final, err := w.Next(ctx)
	if err != nil || final {
		t.Fatalf("Next = final %v, err %v", final, err)
	}
	// The time trigger must emit only complete lines; the partial tail
	// stays in the carry until more data or EOF.
	if string(win) != "complete line\n" {
		t.Fatalf("time-triggered window = %q", win)
	}
	pw.Close() // clean EOF: the final flush includes the unterminated carry
	win, final, err = w.Next(ctx)
	if err != nil || !final {
		t.Fatalf("final Next = final %v, err %v", final, err)
	}
	if string(win) != "partial" {
		t.Errorf("final window = %q, want the carried partial line", win)
	}
}

func TestWindowerBackpressurePausesSource(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(2)), 2000)
	const maxBuffer = 4 << 10
	w := newWindower(NewReaderSource(bytes.NewReader(input)), time.Hour, 1<<10, maxBuffer, 0)
	// Nothing is consumed until the reader has parked on its second chunk
	// (the first alone is over budget), so whether it pauses does not
	// depend on which goroutine the scheduler favours.
	for deadline := time.Now().Add(10 * time.Second); w.Pauses() == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	wins := collectWindows(t, w)
	if got := bytes.Join(wins, nil); !bytes.Equal(got, input) {
		t.Fatalf("backpressured stream lost data: %d vs %d bytes", len(got), len(input))
	}
	if w.Pauses() == 0 {
		t.Error("source was never paused despite a tiny buffer budget")
	}
}

func TestWindowerSourceErrorSurfaces(t *testing.T) {
	pr, pw := io.Pipe()
	w := newWindower(NewReaderSource(pr), time.Hour, 0, 0, 0)
	defer w.stop()
	pw.CloseWithError(fmt.Errorf("connection reset"))
	_, final, err := w.Next(context.Background())
	if !final || err == nil {
		t.Fatalf("Next after source error = final %v, err %v", final, err)
	}
}

func TestFollowSourceAppendsAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.log")
	if err := os.WriteFile(path, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewFollowSource(path, 0, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	readN := func(want string) {
		t.Helper()
		buf := make([]byte, 64)
		got := ""
		for got != want {
			n, err := src.Read(buf)
			if err != nil {
				t.Fatalf("Read after %q: %v", got, err)
			}
			got += string(buf[:n])
		}
	}
	readN("one\n")

	// Appends show up.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("two\n")
	f.Close()
	readN("two\n")
	if off := src.Offset(); off != 8 {
		t.Errorf("offset = %d, want 8", off)
	}

	// Rotation: rename the file away and recreate the path. The source
	// must reopen the new file from 0.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("fresh\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	readN("fresh\n")
	if src.Rotations() != 1 {
		t.Errorf("rotations = %d, want 1", src.Rotations())
	}
	if off := src.Offset(); off != 6 {
		t.Errorf("offset after rotation = %d, want 6", off)
	}

	// Truncation (copytruncate rotation) also resets to 0.
	if err := os.WriteFile(path, []byte("cut\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	readN("cut\n")
	if src.Rotations() != 2 {
		t.Errorf("rotations after truncate = %d, want 2", src.Rotations())
	}

	// Close unblocks a parked Read with io.EOF.
	done := make(chan error, 1)
	go func() {
		_, err := src.Read(make([]byte, 8))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	src.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Errorf("Read after Close = %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Read")
	}
}

// TestFollowSourceCloseDuringPoll closes a source while its reader
// spins through the end-of-file poll (read, rotation check, wait), a
// thousand times: the reader must see io.EOF every time, never the
// closed file's error. Run it under -race: Read and Close hand the file
// between them.
func TestFollowSourceCloseDuringPoll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.log")
	if err := os.WriteFile(path, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		src, err := NewFollowSource(path, 0, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 64)
			for {
				if _, err := src.Read(buf); err != nil {
					done <- err
					return
				}
			}
		}()
		for src.Offset() < 4 {
			time.Sleep(10 * time.Microsecond)
		}
		src.Close()
		if err := <-done; err != io.EOF {
			t.Fatalf("round %d: Read after Close = %v, want io.EOF", i, err)
		}
	}
}

func TestFollowSourceResumeOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "resume.log")
	if err := os.WriteFile(path, []byte("skip me\nkeep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewFollowSource(path, 8, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	buf := make([]byte, 64)
	n, err := src.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "keep me\n" {
		t.Errorf("resumed read = %q, want the post-offset suffix", buf[:n])
	}
	// An offset past the file (rotated since the checkpoint) falls back
	// to the start.
	src2, err := NewFollowSource(path, 999, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	if src2.Offset() != 0 {
		t.Errorf("oversized resume offset = %d, want 0", src2.Offset())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")

	// Missing file: a clean "no checkpoint yet".
	cp, err := LoadCheckpoint(path)
	if cp != nil || err != nil {
		t.Fatalf("missing checkpoint = %+v, %v", cp, err)
	}

	want := &Checkpoint{
		Seq: 3, SourceOffset: 4096, Windows: 7, Rows: 1234,
		Emit: "cumulative", State: []byte("42\n"), Time: time.Now().Round(time.Second),
	}
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || got.SourceOffset != want.SourceOffset ||
		got.Windows != want.Windows || got.Rows != want.Rows ||
		got.Emit != want.Emit || !bytes.Equal(got.State, want.State) ||
		!got.Time.Equal(want.Time) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// No temp litter from the atomic save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("checkpoint dir has %d entries, want 1 (tmp file leaked?)", len(ents))
	}

	// Corruption is an error, not a silent fresh start.
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint loaded without error")
	}
}

// TestEmitLatencyFollowsRecentWindows: past maxLatSamples windows the
// emit-latency record keeps the most recent ones, so the percentiles
// describe the stream as it runs now, not its first windows.
func TestEmitLatencyFollowsRecentWindows(t *testing.T) {
	r := &Runner{}
	for i := 0; i < maxLatSamples; i++ {
		r.noteLatency(time.Millisecond)
	}
	for i := 0; i < maxLatSamples*3/4; i++ {
		r.noteLatency(9 * time.Millisecond)
	}
	if p50, p99 := r.latPercentiles(); p50 != 9 || p99 != 9 {
		t.Errorf("p50, p99 = %v, %v ms; want 9, 9 from the recent windows", p50, p99)
	}
	if len(r.lats) != maxLatSamples {
		t.Errorf("the record holds %d samples, want the cap %d", len(r.lats), maxLatSamples)
	}
}
