package stream

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// sizedReads serves r in reads of the given sizes, cycling through
// them, so a test can put a window boundary exactly at a read's end.
type sizedReads struct {
	r     io.Reader
	sizes []int
	i     int
}

func (s *sizedReads) Read(p []byte) (int, error) {
	n := min(s.sizes[s.i%len(s.sizes)], len(p))
	s.i++
	return s.r.Read(p[:n])
}

// refWindows is the size trigger written out: each window ends at the
// first '\n' at or past maxBytes from its start, and the rest of the
// input is the final window.
func refWindows(input []byte, maxBytes int) [][]byte {
	var wins [][]byte
	for len(input) >= maxBytes {
		i := bytes.IndexByte(input[maxBytes-1:], '\n')
		if i < 0 {
			break
		}
		wins = append(wins, input[:maxBytes+i])
		input = input[maxBytes+i:]
	}
	if len(input) > 0 {
		wins = append(wins, input)
	}
	return wins
}

func sameWindows(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("window %d: %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
	}
}

// testCtx bounds a test's Next calls, so a windower that never hands
// out a window fails the test instead of hanging it.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// While the consumer holds window 1, the reader reads window 2 and cuts
// it, so Buffered reaches window 2's length before the next Next.
func TestWindowerReadAhead(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(3)), 20000)
	const maxBytes = 64 << 10
	want := refWindows(input, maxBytes)
	if len(want) < 3 {
		t.Fatalf("input makes %d windows, want at least 3", len(want))
	}
	two := len(want[0]) + len(want[1])
	pr, pw := io.Pipe()
	go func() {
		pw.Write(input[:two])
		// Hold the rest back until window 2 has been seen queued.
	}()
	w := newWindower(NewReaderSource(pr), time.Hour, maxBytes, 0, 0)
	defer w.stop()
	ctx := testCtx(t)
	win, _, err := w.Next(ctx)
	if err != nil || !bytes.Equal(win, want[0]) {
		t.Fatalf("window 1: %d bytes, err %v", len(win), err)
	}
	win = bytes.Clone(win) // the next Next may reuse its bytes
	waitFor(t, "window 2 to be read ahead", func() bool { return w.Buffered() == int64(len(want[1])) })
	if w.Boundary() != int64(len(want[0])) {
		t.Errorf("boundary = %d while window 2 is queued, want %d", w.Boundary(), len(want[0]))
	}
	go func() {
		pw.Write(input[two:])
		pw.Close()
	}()
	wins := collectWindows(t, w)
	sameWindows(t, append([][]byte{win}, wins...), want)
	if w.Pauses() != 0 {
		t.Errorf("pauses = %d without MaxBuffer, want 0", w.Pauses())
	}
}

// Under MaxBuffer the reader reads ahead to the bound, pauses there,
// and never holds more than the bound plus one read. Its buffer peaks
// where it parks: only its reads add to it.
func TestWindowerReadAheadBound(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(4)), 40000)
	const maxBytes, maxBuffer = 16 << 10, 100 << 10
	w := newWindower(NewReaderSource(bytes.NewReader(input)), time.Hour, maxBytes, maxBuffer, 0)
	defer w.stop()
	ctx := testCtx(t)
	var got [][]byte
	peak := int64(0)
	for {
		win, final, err := w.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, bytes.Clone(win))
		if final {
			break
		}
		// Hold each window until the reader has stopped reading ahead.
		waitFor(t, "the reader to park or end", func() bool {
			w.mu.Lock()
			defer w.mu.Unlock()
			peak = max(peak, w.queued+int64(len(w.tail)))
			return w.parks() || w.ended
		})
	}
	if !bytes.Equal(bytes.Join(got, nil), input) {
		t.Fatal("windows do not reassemble the input")
	}
	if w.Pauses() == 0 {
		t.Error("the source was never paused")
	}
	if peak < maxBuffer || peak > maxBuffer+readChunk {
		t.Errorf("buffered peaked at %d bytes, want from MaxBuffer %d to MaxBuffer + one read %d", peak, maxBuffer, maxBuffer+readChunk)
	}
}

// A time-only stream queues no window, so while the consumer is away
// its reader stops at the bound instead of reading the source to its end.
func TestWindowerTimeOnlyReadAheadBound(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(6)), 40000)
	w := newWindower(NewReaderSource(bytes.NewReader(input)), time.Hour, 0, 0, 0)
	defer w.stop()
	waitFor(t, "the reader to park", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.parks()
	})
	if b := w.Buffered(); b >= 2*readChunk {
		t.Errorf("buffered %d bytes with no consumer, want under the bound plus one read (%d)", b, 2*readChunk)
	}
	if w.Pauses() != 0 {
		t.Errorf("pauses = %d without MaxBuffer, want 0", w.Pauses())
	}
}

func TestWindowerAdversarialInputs(t *testing.T) {
	lines := func(n, width int) string {
		return strings.Repeat(strings.Repeat("x", width-1)+"\n", n)
	}
	cases := []struct {
		name     string
		input    string
		maxBytes int
		reads    []int
	}{
		{"line longer than a window plus a read", lines(3, 10) + strings.Repeat("L", 1000+readChunk+500) + "\n" + lines(300, 10), 1000, nil},
		{"boundary at the end of a read", lines(400, 100), 1000, []int{1000}},
		{"boundary at the end of a full read", lines(2000, 64), readChunk, nil},
		{"boundary one past a read", lines(400, 100), 1000, []int{999, 1}},
		{"no final newline", lines(50, 20) + "tail", 100, []int{7}},
		{"empty input", "", 100, nil},
		{"one byte windows", "a\nb\n\nc", 1, []int{1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var r io.Reader = strings.NewReader(c.input)
			if c.reads != nil {
				r = &sizedReads{r: r, sizes: c.reads}
			}
			w := newWindower(NewReaderSource(r), time.Hour, int64(c.maxBytes), 0, 0)
			sameWindows(t, collectWindows(t, w), refWindows([]byte(c.input), c.maxBytes))
			if w.Boundary() != int64(len(c.input)) {
				t.Errorf("boundary = %d, want %d", w.Boundary(), len(c.input))
			}
		})
	}
}

// A time trigger that fires while a size window is queued hands out the
// size window first, unchanged, and then only the tail's complete lines.
func TestWindowerTimeTriggerBehindQueuedWindow(t *testing.T) {
	const maxBytes = 1000
	sized := []byte(strings.Repeat(strings.Repeat("s", 99)+"\n", 10))
	pr, pw := io.Pipe()
	go pw.Write(append(append([]byte(nil), sized...), "t1\nt2\npart"...))
	w := newWindower(NewReaderSource(pr), time.Nanosecond, maxBytes, 0, 0)
	defer w.stop()
	waitFor(t, "the input to be read", func() bool { return w.Buffered() == int64(len(sized)+10) })

	ctx := testCtx(t)
	for _, want := range []string{string(sized), "t1\nt2\n"} {
		win, final, err := w.Next(ctx)
		if err != nil || final || string(win) != want {
			t.Fatalf("Next = %q, final %v, err %v; want %q", win, final, err, want)
		}
	}
	pw.Close()
	win, final, err := w.Next(ctx)
	if err != nil || !final || string(win) != "part" {
		t.Fatalf("final Next = %q, final %v, err %v", win, final, err)
	}
}

// FuzzWindowerChunking: however reads chunk the input, the size trigger
// cuts the same newline-aligned windows, and they reassemble the input.
func FuzzWindowerChunking(f *testing.F) {
	f.Add([]byte("a\nbb\nccc\n"), uint16(2), int64(1))
	f.Add([]byte("no newline at all"), uint16(3), int64(2))
	f.Add(bytes.Repeat([]byte("0123456789\n"), 300), uint16(100), int64(3))
	f.Fuzz(func(t *testing.T, input []byte, size uint16, seed int64) {
		maxBytes := int64(size%4096) + 1
		run := func(r io.Reader) [][]byte {
			return collectWindows(t, newWindower(NewReaderSource(r), time.Hour, maxBytes, 0, 0))
		}
		ref := run(bytes.NewReader(input))
		if !bytes.Equal(bytes.Join(ref, nil), input) {
			t.Fatal("windows do not reassemble the input")
		}
		for i, win := range ref {
			if i < len(ref)-1 && (win[len(win)-1] != '\n' || int64(len(win)) < maxBytes) {
				t.Fatalf("non-final window %d (%d bytes) is unaligned or under %d bytes", i, len(win), maxBytes)
			}
		}
		sameWindows(t, run(&chunked{r: bytes.NewReader(input), rng: rand.New(rand.NewSource(seed))}), ref)
	})
}

// The arrays windows are cut from are reused once the runner is done
// with every window in them: each window, checked when Next returns it
// and not after, holds its bytes while the reader fills recycled arrays
// behind it, MaxBuffer keeps windows queued in two arrays or more, and
// the windower never holds more arrays than its bound spans.
func TestWindowerRecyclesArrays(t *testing.T) {
	input := randomText(rand.New(rand.NewSource(6)), 60000)
	const maxBytes, maxBuffer = 16 << 10, 256 << 10
	want := refWindows(input, maxBytes)
	w := newWindower(NewReaderSource(&chunked{r: bytes.NewReader(input), rng: rand.New(rand.NewSource(7))}), time.Hour, maxBytes, maxBuffer, 0)
	defer w.stop()
	ctx := testCtx(t)
	for i := 0; ; i++ {
		win, final, err := w.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || !bytes.Equal(win, want[i]) {
			t.Fatalf("window %d differs from the reference", i)
		}
		if final {
			if i != len(want)-1 {
				t.Fatalf("%d windows, want %d", i+1, len(want))
			}
			break
		}
		// Let the reader fill the next arrays while this window is held.
		waitFor(t, "the reader to park or end", func() bool {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.parks() || w.ended
		})
		if !bytes.Equal(win, want[i]) {
			t.Fatalf("window %d changed while it was held", i)
		}
		w.mu.Lock()
		arrays := len(w.left) + 1
		w.mu.Unlock()
		if arrays > 4 {
			t.Fatalf("after window %d the windower holds %d arrays, want at most 4", i, arrays)
		}
	}
}

// BenchmarkWindower cuts an 8 MiB in-memory source into 1 MiB windows.
func BenchmarkWindower(b *testing.B) {
	input := randomText(rand.New(rand.NewSource(5)), 420000)[:8<<20]
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		w := newWindower(NewReaderSource(bytes.NewReader(input)), time.Hour, 1<<20, 0, 0)
		for {
			_, final, err := w.Next(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if final {
				break
			}
		}
		w.stop()
	}
}
