package dist_test

import (
	"bytes"
	"context"
	"errors"
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

func (s *sliceSource) ReadChunk() ([]byte, error) {
	if s.next == len(s.chunks) {
		return nil, io.EOF
	}
	b := append(commands.GetBlock(), s.chunks[s.next]...)
	s.next++
	return b, nil
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
	reg := commands.NewStd()
	agg.Install(reg)
	filter := []dfg.FusedStage{{Name: "tr", Args: []string{"A-Z", "a-z"}}, {Name: "grep", Args: []string{"the"}}}
	sorted := []dfg.FusedStage{{Name: "sort"}}

	shapes := []struct {
		name string
		spec dfg.RemoteSpec
		in   [][]byte
	}{
		{"filerange", dfg.RemoteSpec{Stages: filter, Path: "in.txt", Slice: 0, Of: 1}, nil},
		{"streamed-linear", dfg.RemoteSpec{Stages: sorted, Streamed: true}, chunks},
	}
	// Each rung: the killers in ladder order (bytes of response they
	// stream before dying), the healthy workers behind them, and the
	// {Failures, RedispatchedRemote, Redispatched} row each worker must
	// end with. A killer at 9 lets one whole output frame through (its
	// 8-byte header, then its payload) and dies on the next, so the next
	// rung has a delivered prefix to skip; a killer at 0 dies before
	// delivering anything.
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
			if shape.in != nil {
				req.In = &sliceSource{chunks: shape.in}
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
				spec := shape.spec
				spec.Worker = pool.WorkerNames()[0]
				var got collector
				req := request(&spec, &got)
				req.Budget = runtime.NewBudget(runtime.JobLimits{MaxPipeMemory: 1 << 30})
				if err := pool.ExecRemote(context.Background(), req); err != nil {
					t.Fatal(err)
				}
				// Every retained chunk was charged, and every rung that
				// took one over (the local rung, the end of the session)
				// gave its charge back.
				if u := req.Budget.Usage(); u.PipeBytes != 0 || (shape.in != nil && u.PipeBytesPeak == 0) {
					t.Errorf("retained input: %d bytes still charged (peak %d), want 0 after a peak > 0", u.PipeBytes, u.PipeBytesPeak)
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

// TestSessionBudgetBreach: a streamed shard's retained input over the
// job's pipe budget fails the node with the typed breach. The workers
// did nothing wrong, so none is failed, marked down or replaced, and
// nothing stays charged.
func TestSessionBudgetBreach(t *testing.T) {
	dir := t.TempDir()
	chunks := lineChunks(makeInput(20000, 5), 8<<10)
	reg := commands.NewStd()
	pool := startWorkers(t, 2, dir)
	budget := runtime.NewBudget(runtime.JobLimits{MaxPipeMemory: 4 * 8 << 10})
	var out collector
	err := pool.ExecRemote(context.Background(), &runtime.RemoteRequest{
		Spec: &dfg.RemoteSpec{Worker: pool.WorkerNames()[0], Stages: []dfg.FusedStage{{Name: "sort"}}, Streamed: true},
		In:   &sliceSource{chunks: chunks},
		Out:  &out, Reg: reg, FS: commands.OSFS{Dir: dir}, Stderr: io.Discard, Budget: budget,
	})
	var be *runtime.BudgetError
	if !errors.As(err, &be) || be.Resource != "pipe-memory" {
		t.Fatalf("err = %v, want a pipe-memory BudgetError", err)
	}
	for _, st := range pool.Stats() {
		if st.Failures != 0 || st.Redispatched != 0 || st.RedispatchedRemote != 0 || !st.Healthy {
			t.Errorf("budget breach treated as a worker death: %+v", st)
		}
	}
	if u := budget.Usage(); u.PipeBytes != 0 {
		t.Errorf("%d bytes still charged after the breach", u.PipeBytes)
	}
}

// TestDistributedEquivalenceProperty: distributed == local, byte for
// byte, under random worker counts (1-8), random input shapes (line
// lengths, trailing unterminated lines), and one injected mid-stream
// worker kill per round. Run under -race in CI.
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

// TestRunRemoteSpecShapes: one runner, runtime.RunRemoteSpec, runs a
// spec on a worker and on the coordinator's local rung. A file-range
// shard and a streamed shard run on a worker; the streamed shard, whose
// chain has a stage with no kernel (so its stages run as commands over
// byte streams), also dies mid-stream with no survivor and finishes on
// the coordinator. Every output is the width-1 pipeline's.
func TestRunRemoteSpecShapes(t *testing.T) {
	dir := t.TempDir()
	text := makeInput(30000, 11)
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := commands.NewStd()
	agg.Install(reg)
	filter := []dfg.FusedStage{{Name: "tr", Args: []string{"A-Z", "a-z"}}, {Name: "grep", Args: []string{"the"}}}
	// cat passes its bytes through; paste over one stream does too, and
	// has no kernel.
	copied := []dfg.FusedStage{{Name: "cat"}, {Name: "tr", Args: []string{"A-Z", "a-z"}}, {Name: "paste"}}
	for _, tc := range []struct {
		name    string
		spec    dfg.RemoteSpec
		in      [][]byte
		killers []int64
		healthy int
		local   int64 // shards the coordinator finished
		script  string
	}{
		{"filerange-on-worker", dfg.RemoteSpec{Stages: filter, Path: "in.txt", Slice: 0, Of: 1}, nil, nil, 1, 0,
			"tr A-Z a-z < in.txt | grep the"},
		{"streamed-on-worker", dfg.RemoteSpec{Stages: copied, Streamed: true}, lineChunks(text, 8<<10), nil, 1, 0,
			"cat in.txt | cat | tr A-Z a-z | paste"},
		{"streamed-fails-over-to-coordinator", dfg.RemoteSpec{Stages: copied, Streamed: true}, lineChunks(text, 8<<10), []int64{9}, 0, 1,
			"cat in.txt | cat | tr A-Z a-z | paste"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runScript(t, tc.script, dir, 1, nil)
			pool, killers := startPoolWithKiller(t, tc.healthy, dir, tc.killers...)
			spec := tc.spec
			spec.Worker = pool.WorkerNames()[0]
			var got collector
			req := &runtime.RemoteRequest{Spec: &spec, Out: &got, Reg: reg, FS: commands.OSFS{Dir: dir}, Stderr: io.Discard}
			if tc.in != nil {
				req.In = &sliceSource{chunks: tc.in}
			}
			if err := pool.ExecRemote(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Fatalf("output diverged from width 1 (%d vs %d bytes)", got.Len(), len(want))
			}
			for i, kh := range killers {
				if !kh.killed.Load() {
					t.Errorf("killer %d never died", i)
				}
			}
			var requests, local int64
			for _, st := range pool.Stats() {
				requests += st.Requests
				local += st.Redispatched
			}
			if requests == 0 || local != tc.local {
				t.Errorf("%d worker requests, %d shards finished on the coordinator; want > 0 and %d", requests, local, tc.local)
			}
		})
	}
}
