package runtime

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
)

// TestChunkPipeStress hammers one pipe with several concurrent chunk
// writers and byte readers at random chunk sizes. Run under -race it
// checks the locking discipline; the byte totals check ownership
// transfer (no chunk lost or double-delivered). A second pipe has one
// consumer that mixes Read and ReadChunk: its bytes arrive intact, and a
// chunk read after a partial Read is still a whole block.
func TestChunkPipeStress(t *testing.T) {
	const writers = 4
	const chunksPerWriter = 200
	p := newPipe(96 * 1024)
	rng := rand.New(rand.NewSource(7))
	sizes := make([][]int, writers)
	var want int64
	for w := range sizes {
		sizes[w] = make([]int, chunksPerWriter)
		for i := range sizes[w] {
			n := rng.Intn(commands.BlockSize + 17) // includes 0 and > BlockSize-ish
			sizes[w][i] = n
			want += int64(n)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range sizes[w] {
				blk := append(commands.GetBlock(), bytes.Repeat([]byte{byte(w + 1)}, n)...)
				if err := p.WriteChunk(blk); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		p.CloseWrite()
	}()

	var got int64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 31*1024)
			for {
				n, err := p.Read(buf)
				atomic.AddInt64(&got, int64(n))
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	rg.Wait()
	if got != want {
		t.Fatalf("read %d bytes, wrote %d", got, want)
	}

	text := make([]byte, 1<<20)
	rng.Read(text)
	mixed := newPipe(96 * 1024)
	go func() {
		defer mixed.CloseWrite()
		wrng := rand.New(rand.NewSource(8))
		for rest := text; len(rest) > 0; {
			n := min(len(rest), wrng.Intn(commands.BlockSize+1))
			var err error
			if wrng.Intn(3) == 0 {
				_, err = mixed.Write(rest[:n])
			} else {
				err = mixed.WriteChunk(append(commands.GetBlock(), rest[:n]...))
			}
			if err != nil {
				t.Errorf("mixed writer: %v", err)
				return
			}
			rest = rest[n:]
		}
	}()
	var read []byte
	buf := make([]byte, 5000)
	for {
		if rng.Intn(2) == 0 {
			n, err := mixed.Read(buf[:1+rng.Intn(len(buf))])
			read = append(read, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("mixed read: %v", err)
			}
			continue
		}
		b, err := mixed.ReadChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("mixed read chunk: %v", err)
		}
		if cap(b) != commands.BlockSize {
			t.Fatalf("a chunk of capacity %d: not a whole block", cap(b))
		}
		read = append(read, b...)
		commands.PutBlock(b)
	}
	if !bytes.Equal(read, text) {
		t.Fatalf("mixed consumer read %d bytes, not the %d written", len(read), len(text))
	}
}

// TestPipeChunkAllocations: a chunk's round trip through a pipe, one
// WriteChunk and one ReadChunk, allocates nothing once the queue has its
// backing array. The stateless data plane's other allocation checks are
// commands.TestDataPlaneAllocations.
func TestPipeChunkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pool drops blocks on purpose under the race detector")
	}
	p := newPipe(0)
	trip := func() {
		if err := p.WriteChunk(append(commands.GetBlock(), "a line\n"...)); err != nil {
			t.Fatal(err)
		}
		b, err := p.ReadChunk()
		if err != nil {
			t.Fatal(err)
		}
		commands.PutBlock(b)
	}
	trip()
	if a := testing.AllocsPerRun(100, trip); a != 0 {
		t.Errorf("WriteChunk + ReadChunk through newPipe(0): %.0f allocations, want 0", a)
	}
}

// TestChunkPipeEarlyCloseRead checks the SIGPIPE analog on the chunk
// path: writers racing a CloseRead must all terminate with
// ErrDownstreamClosed and never deadlock.
func TestChunkPipeEarlyCloseRead(t *testing.T) {
	p := newPipe(pipeBufSize)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				blk := append(commands.GetBlock(), make([]byte, 8192)...)
				if err := p.WriteChunk(blk); err != nil {
					if err != ErrDownstreamClosed {
						t.Errorf("unexpected write error: %v", err)
					}
					return
				}
			}
		}()
	}
	// Read a little, then hang up.
	buf := make([]byte, 4096)
	if _, err := p.Read(buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	p.CloseRead()
	wg.Wait()
}

// TestChunkPipeFramingTokens checks that zero-length chunks survive the
// chunk path as distinct frames while staying invisible to byte readers.
func TestChunkPipeFramingTokens(t *testing.T) {
	p := newPipe(0)
	payloads := []string{"", "alpha", "", "", "beta", ""}
	for _, s := range payloads {
		blk := append(commands.GetBlock(), s...)
		if err := p.WriteChunk(blk); err != nil {
			t.Fatal(err)
		}
	}
	p.CloseWrite()
	var seen []string
	for {
		b, err := p.ReadChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, string(b))
		commands.PutBlock(b)
	}
	if fmt.Sprint(seen) != fmt.Sprint(payloads) {
		t.Errorf("chunk frames = %q, want %q", seen, payloads)
	}

	// Byte readers skip the tokens.
	p2 := newPipe(0)
	for _, s := range payloads {
		if err := p2.WriteChunk(append(commands.GetBlock(), s...)); err != nil {
			t.Fatal(err)
		}
	}
	p2.CloseWrite()
	data, err := io.ReadAll(readEnd{p2})
	if err != nil || string(data) != "alphabeta" {
		t.Errorf("byte view = %q, %v, want %q", data, err, "alphabeta")
	}
}

// rrInputs is the property-test corpus: adversarial shapes including an
// empty input, a final unterminated line, lines longer than a block, and
// pseudo-random text.
func rrInputs() map[string]string {
	rng := rand.New(rand.NewSource(42))
	var random strings.Builder
	for i := 0; i < 4000; i++ {
		n := rng.Intn(120)
		for j := 0; j < n; j++ {
			random.WriteByte(byte('a' + rng.Intn(26)))
		}
		random.WriteByte('\n')
	}
	return map[string]string{
		"empty":        "",
		"one-line":     "solo\n",
		"unterminated": "first\nsecond\nlast without newline",
		"blank-lines":  "\n\n\na\n\n\nb\n\n",
		"long-line":    strings.Repeat("x", 3*commands.BlockSize) + "\nshort\n" + strings.Repeat("y", commands.BlockSize),
		"random":       random.String(),
	}
}

// TestRoundRobinSplitMergeRoundTrip is the core streaming-split
// property: round-robin split into k chunk pipes, reassembled by the
// rotation merge, must reproduce the input byte-identically — including
// a final unterminated line — for every width.
func TestRoundRobinSplitMergeRoundTrip(t *testing.T) {
	for name, input := range rrInputs() {
		for width := 1; width <= 5; width++ {
			streams := make([]*edgeStream, width)
			ws := make([]io.WriteCloser, width)
			rs := make([]io.Reader, width)
			for i := range streams {
				streams[i] = newEdgeStream(true, 0) // unbounded: split runs first
				ws[i] = streams[i].writer()
				rs[i] = streams[i].reader()
			}
			if err := roundRobinSplit(strings.NewReader(input), ws); err != nil {
				t.Fatalf("%s width %d: split: %v", name, width, err)
			}
			var out bytes.Buffer
			if err := commands.MergeChunksRoundRobin(rs, &out); err != nil {
				t.Fatalf("%s width %d: merge: %v", name, width, err)
			}
			if out.String() != input {
				t.Errorf("%s width %d: round trip diverged (%d bytes vs %d)",
					name, width, out.Len(), len(input))
			}
		}
	}
}

// perLineSplit is the barrier split as it was before it moved blocks:
// every line materialised, then written one at a time. Retained as the
// oracle for the block-wise GeneralSplit.
func perLineSplit(input string, width int) []string {
	lines, _ := commands.ReadAllLines(strings.NewReader(input))
	per := (len(lines) + width - 1) / width
	parts := make([]string, width)
	for i := range parts {
		var sb strings.Builder
		for j := 0; j < per && len(lines) > 0; j++ {
			sb.Write(lines[0])
			sb.WriteByte('\n')
			lines = lines[1:]
		}
		parts[i] = sb.String()
	}
	return parts
}

// TestBarrierSplitMatchesPerLineSplit checks the block-wise barrier split
// on the round-robin corpus: at every width each partition is
// byte-identical to the per-line split's, whether the input arrives as a
// byte stream or as chunks cut at arbitrary offsets with empty chunks in
// between.
func TestBarrierSplitMatchesPerLineSplit(t *testing.T) {
	for name, input := range rrInputs() {
		for width := 1; width <= 5; width++ {
			want := perLineSplit(input, width)
			for _, chunked := range []bool{false, true} {
				var src io.Reader = strings.NewReader(input)
				if chunked {
					in := newEdgeStream(true, 0)
					w := in.writer()
					for rest := []byte(input); len(rest) > 0; {
						n := min(len(rest), 1+(7*len(rest))%(commands.BlockSize+999))
						if err := w.(commands.ChunkWriter).WriteChunk(append(commands.GetBlock(), rest[:n]...)); err != nil {
							t.Fatal(err)
						}
						rest = rest[n:]
						// A framed producer's ordering tokens ride along.
						if err := w.(commands.ChunkWriter).WriteChunk(commands.GetBlock()); err != nil {
							t.Fatal(err)
						}
					}
					w.Close()
					src = in.reader()
				}
				streams := make([]*edgeStream, width)
				ws := make([]io.WriteCloser, width)
				for i := range streams {
					streams[i] = newEdgeStream(true, 0) // unbounded: split runs first
					ws[i] = streams[i].writer()
				}
				if err := GeneralSplit(src, ws); err != nil {
					t.Fatalf("%s width %d: split: %v", name, width, err)
				}
				for i, s := range streams {
					got, err := io.ReadAll(s.reader())
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != want[i] {
						t.Errorf("%s width %d chunked=%v: partition %d is %d bytes, per-line split gives %d",
							name, width, chunked, i, len(got), len(want[i]))
					}
				}
			}
		}
	}
}

// TestRoundRobinGraphMatchesSequential runs `tr a-z A-Z | grep` style
// pipelines through the full transformed graph — streaming round-robin
// split, framed replicas, order-restoring merge — and checks the output
// equals the sequential run on the same adversarial inputs.
func TestRoundRobinGraphMatchesSequential(t *testing.T) {
	mk := func() []*dfg.Node {
		return []*dfg.Node{
			dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
			dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("-v"), dfg.Lit("^$")}, annot.Stateless),
		}
	}
	for name, input := range rrInputs() {
		seq := execGraph(t, buildPipeline(mk()...), input, Config{})

		g := buildPipeline(mk()...)
		dfg.Apply(g, dfg.Options{Width: 4, Split: true, Eager: true})
		rrSplits := 0
		for _, n := range g.Nodes {
			if n.Kind == dfg.KindSplit && n.Split == dfg.RoundRobinSplit {
				rrSplits++
			}
		}
		if rrSplits == 0 {
			t.Fatalf("%s: planner did not choose the round-robin split\n%s", name, g.Dump())
		}
		par := execGraph(t, g, input, Config{})
		if par != seq {
			t.Errorf("%s: parallel output diverged from sequential\nseq %d bytes, par %d bytes",
				name, len(seq), len(par))
		}
	}
}

// TestRoundRobinFeedsCommutativeMaps runs `tr | sort` through the graph
// a commutative consumer gets — round-robin split, framed replicas, sort
// maps reading each replica's interleaved blocks as one stream, sort -m —
// and checks the output equals the sequential run on the same
// adversarial inputs (empty chunks, an unterminated final line, lines
// longer than a block).
func TestRoundRobinFeedsCommutativeMaps(t *testing.T) {
	mk := func() []*dfg.Node {
		sort := dfg.NewNode(dfg.KindCommand, "sort", nil, annot.Pure)
		sort.Agg = &dfg.AggSpec{MapName: "sort", AggName: "sort", AggArgs: []string{"-m"}, Associative: true, Commutative: true}
		return []*dfg.Node{
			dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
			sort,
		}
	}
	for name, input := range rrInputs() {
		seq := execGraph(t, buildPipeline(mk()...), input, Config{})

		g := buildPipeline(mk()...)
		dfg.Apply(g, dfg.Options{Width: 4, Split: true, Eager: true})
		for _, n := range g.Nodes {
			if n.Kind == dfg.KindMerge || (n.Kind == dfg.KindSplit && n.Split != dfg.RoundRobinSplit) {
				t.Fatalf("%s: planner kept %v in front of a commutative consumer\n%s", name, n, g.Dump())
			}
		}
		if par := execGraph(t, g, input, Config{}); par != seq {
			t.Errorf("%s: parallel output diverged from sequential\nseq %d bytes, par %d bytes",
				name, len(seq), len(par))
		}
	}
}

// TestRoundRobinTrafficCounters checks that the bytes/chunks-moved
// meter sees the streamed data.
func TestRoundRobinTrafficCounters(t *testing.T) {
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
	)
	dfg.Apply(g, dfg.Options{Width: 2, Split: true, Eager: true})
	var out bytes.Buffer
	var traffic Traffic
	input := strings.Repeat("stream me\n", 5000)
	if _, err := Execute(context.Background(), g, testRegistry(),
		StdIO{Stdin: strings.NewReader(input), Stdout: &out}, Config{Traffic: &traffic}); err != nil {
		t.Fatal(err)
	}
	moved, chunks := traffic.Moved()
	if moved < int64(len(input)) {
		t.Errorf("bytes moved = %d, want >= %d", moved, len(input))
	}
	if chunks == 0 {
		t.Error("chunks moved = 0, want > 0")
	}
}

// TestTrafficCountsCoalescedWrites: small writes coalesce into the
// queue's tail block, and the meter still counts every byte of them,
// in the one block they share.
func TestTrafficCountsCoalescedWrites(t *testing.T) {
	var traffic Traffic
	p := newPipe(0)
	p.traffic = &traffic
	for i := 0; i < 100; i++ {
		if _, err := p.Write([]byte("hello\n")); err != nil {
			t.Fatal(err)
		}
	}
	if moved, chunks := traffic.Moved(); moved != 600 || chunks != 1 {
		t.Errorf("traffic = %d bytes in %d chunks, want 600 in 1", moved, chunks)
	}
}
