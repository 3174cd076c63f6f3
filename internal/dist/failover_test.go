package dist_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/pash"
)

// killingHandler aborts the HTTP connection after roughly afterBytes of
// response body have streamed — a worker dying mid-stream, injected
// deterministically. Only the first request dies; by then the pool has
// marked the worker down, so nothing else should arrive.
type killingHandler struct {
	inner      http.Handler
	afterBytes int64
	written    atomic.Int64 // cumulative across the worker's requests
	killed     atomic.Bool
}

type killingWriter struct {
	http.ResponseWriter
	h *killingHandler
}

func (kw *killingWriter) Write(p []byte) (int, error) {
	if kw.h.written.Load() >= kw.h.afterBytes && kw.h.killed.CompareAndSwap(false, true) {
		panic(http.ErrAbortHandler)
	}
	n, err := kw.ResponseWriter.Write(p)
	kw.h.written.Add(int64(n))
	return n, err
}

func (kw *killingWriter) Flush() {
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (kw *killingWriter) EnableFullDuplex() error {
	return http.NewResponseController(kw.ResponseWriter).EnableFullDuplex()
}

func (h *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" && !h.killed.Load() {
		h.inner.ServeHTTP(&killingWriter{ResponseWriter: w, h: h}, r)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// startPoolWithKiller launches one dying worker per afterBytes value —
// each dies after streaming ~that many bytes of one response — followed
// by the healthy workers, in that registration order.
func startPoolWithKiller(t *testing.T, healthy int, dir string, afterBytes ...int64) (*pash.WorkerPool, []*killingHandler) {
	t.Helper()
	var names []string
	var killers []*killingHandler
	for _, after := range afterBytes {
		kh := &killingHandler{inner: dist.NewWorker(nil, dir).Handler(), afterBytes: after}
		ts := httptest.NewServer(kh)
		t.Cleanup(ts.Close)
		killers = append(killers, kh)
		names = append(names, ts.URL)
	}
	for i := 0; i < healthy; i++ {
		ts := httptest.NewServer(dist.NewWorker(nil, dir).Handler())
		t.Cleanup(ts.Close)
		names = append(names, ts.URL)
	}
	return pash.NewWorkerPool(names...), killers
}

// sliceSource hands out owned copies of fixed chunks, the way an edge
// pipe hands over blocks.
type sliceSource struct {
	chunks [][]byte
	next   int
}

func (s *sliceSource) ReadChunk() ([]byte, func(), error) {
	if s.next == len(s.chunks) {
		return nil, func() {}, io.EOF
	}
	b := append(commands.GetBlock(), s.chunks[s.next]...)
	s.next++
	return b, func() { commands.PutBlock(b) }, nil
}

// collector is the downstream edge: it keeps the bytes and recycles the
// block.
type collector struct{ bytes.Buffer }

func (c *collector) WriteChunk(b []byte) error {
	c.Write(b)
	commands.PutBlock(b)
	return nil
}

// lineChunks cuts text into newline-aligned chunks of roughly size
// bytes.
func lineChunks(text string, size int) [][]byte {
	var out [][]byte
	for len(text) > 0 {
		n := len(text)
		if n > size {
			n = size + strings.IndexByte(text[size:], '\n') + 1
		}
		out = append(out, []byte(text[:n]))
		text = text[n:]
	}
	return out
}

// TestSessionWorkerDeath drives single remote requests through
// Pool.ExecRemote: every wire shape down every rung of the recovery
// ladder. Output must be byte-identical to interpreting the same spec
// locally, and the meters must show exactly the rungs walked — a shard
// re-dispatched to a survivor is never also counted against the
// coordinator, and local fallback with a live peer available is a bug.
func TestSessionWorkerDeath(t *testing.T) {
	dir := t.TempDir()
	text := makeInput(30000, 7)
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	chunks := lineChunks(text, 8<<10)
	half := len(chunks) / 2
	reg := commands.NewStd()
	agg.Install(reg)
	filter := []dfg.FusedStage{{Name: "tr", Args: []string{"A-Z", "a-z"}}, {Name: "grep", Args: []string{"the"}}}
	sorted := []dfg.FusedStage{{Name: "sort"}}

	shapes := []struct {
		name string
		spec dfg.RemoteSpec
		ins  [][][]byte
	}{
		{"framed", dfg.RemoteSpec{Stages: filter, Framed: true}, [][][]byte{chunks}},
		{"filerange", dfg.RemoteSpec{Stages: filter, Path: "in.txt", Slice: 0, Of: 1}, nil},
		{"streamed-linear", dfg.RemoteSpec{Stages: sorted, Streamed: true}, [][][]byte{chunks}},
		{"streamed-tree", dfg.RemoteSpec{
			Streamed: true,
			Branches: [][]dfg.FusedStage{sorted, sorted},
			Agg:      &dfg.FusedStage{Name: "sort", Args: []string{"-m"}},
		}, [][][]byte{chunks[:half], chunks[half:]}},
	}
	// Each rung: the killers in ladder order (bytes of response they
	// stream before dying), the healthy workers behind them, and the
	// {Failures, RedispatchedRemote, Redispatched} row each worker must
	// end with. A killer at 9 lets one whole output frame through (its
	// 8-byte header, then its payload) and dies on the next, so the next
	// rung has a delivered prefix to skip (or acknowledged chunks not to
	// resend); a killer at 0 dies before delivering anything.
	rungs := []struct {
		name    string
		killers []int64
		healthy int
		want    [][3]int64
	}{
		{"clean", nil, 1, [][3]int64{{0, 0, 0}}},
		{"death-with-survivor", []int64{9}, 1, [][3]int64{{1, 1, 0}, {0, 0, 0}}},
		{"death-no-survivor", []int64{9}, 0, [][3]int64{{1, 0, 1}}},
		{"death-during-replay", []int64{9, 0}, 0, [][3]int64{{1, 1, 0}, {1, 0, 1}}},
	}

	for _, shape := range shapes {
		request := func(spec *dfg.RemoteSpec, out *collector) *runtime.RemoteRequest {
			req := &runtime.RemoteRequest{Spec: spec, Out: out, Reg: reg, FS: commands.OSFS{Dir: dir}, Stderr: io.Discard}
			for _, in := range shape.ins {
				req.Ins = append(req.Ins, &sliceSource{chunks: in})
			}
			return req
		}
		var want collector
		spec := shape.spec
		if err := runtime.ExecRemoteLocal(context.Background(), request(&spec, &want)); err != nil {
			t.Fatalf("%s: local reference: %v", shape.name, err)
		}
		if want.Len() < 2*commands.BlockSize {
			t.Fatalf("%s: reference output is %d bytes — too small to die inside", shape.name, want.Len())
		}
		for _, rung := range rungs {
			t.Run(shape.name+"/"+rung.name, func(t *testing.T) {
				pool, killers := startPoolWithKiller(t, rung.healthy, dir, rung.killers...)
				pool.SetWindow(4)
				spec := shape.spec
				spec.Worker = pool.WorkerNames()[0]
				var got collector
				if err := pool.ExecRemote(context.Background(), request(&spec, &got)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("output diverged from local execution (%d vs %d bytes)", got.Len(), want.Len())
				}
				for i, kh := range killers {
					if !kh.killed.Load() {
						t.Errorf("killer %d never died (rung not exercised)", i)
					}
				}
				for i, st := range pool.Stats() {
					got := [3]int64{st.Failures, st.RedispatchedRemote, st.Redispatched}
					if got != rung.want[i] {
						t.Errorf("worker %d: {failures, redispatched_remote, redispatched} = %v, want %v", i, got, rung.want[i])
					}
					if st.Requests != 1 {
						t.Errorf("worker %d: %d requests, want exactly 1", i, st.Requests)
					}
					if st.Healthy != (i >= len(killers)) {
						t.Errorf("worker %d: healthy=%v", i, st.Healthy)
					}
				}
			})
		}
	}
}

// TestDistributedEquivalenceProperty: distributed == local, byte for
// byte, under random worker counts (1-8), random input shapes (line
// lengths, trailing unterminated lines), random windows, and one
// injected mid-stream worker kill per round. Run under -race in CI.
func TestDistributedEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		lines := 500 + rng.Intn(20000)
		input := makeInput(lines, rng.Int63())
		if rng.Intn(2) == 0 && len(input) > 0 {
			// Unterminated final line.
			input = input[:len(input)-1]
		}
		if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		workers := 1 + rng.Intn(8)
		kill := rng.Intn(2) == 0
		var pool *pash.WorkerPool
		if kill {
			pool, _ = startPoolWithKiller(t, workers, dir, int64(rng.Intn(60_000)))
		} else {
			pool = startWorkers(t, workers, dir)
		}
		pool.SetSharedFS(rng.Intn(2) == 0)
		pool.SetWindow(1 + rng.Intn(64))
		width := 2 + rng.Intn(10)
		script := distScripts[rng.Intn(len(distScripts))]
		local := runScript(t, script, dir, width, nil)
		got := runScript(t, script, dir, width, pool)
		if got != local {
			t.Fatalf("round %d (workers=%d width=%d kill=%v script=%q): diverged (%d vs %d bytes)",
				round, workers, width, kill, script, len(got), len(local))
		}
	}
}
