package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// oneChunk is a single-chunk input edge.
type oneChunk struct{ b []byte }

func (o *oneChunk) ReadChunk() ([]byte, func(), error) {
	if o.b == nil {
		return nil, func() {}, io.EOF
	}
	b := append(commands.GetBlock(), o.b...)
	o.b = nil
	return b, func() { commands.PutBlock(b) }, nil
}

type sink struct{ bytes.Buffer }

func (s *sink) WriteChunk(b []byte) error {
	s.Write(b)
	commands.PutBlock(b)
	return nil
}

// TestBarePlanFrameRejected: frame 0 is the handshake, full stop. A
// bare dfg.RemoteSpec in its place — what a pre-handshake coordinator
// sent — gets 400 from the worker, and the coordinator treats that 400
// as an ordinary dispatch failure: the worker sees exactly one request
// for the shard (no second try in some other dialect), is marked down,
// and the shard moves to the next worker.
func TestBarePlanFrameRejected(t *testing.T) {
	dir := t.TempDir()
	// stripper stands in front of a real worker and rewrites each
	// request's frame 0 from the handshake to the bare plan inside it.
	var execs, rejected atomic.Int64
	inner := NewWorker(nil, dir).Handler()
	stripper := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/exec" {
			inner.ServeHTTP(rw, r)
			return
		}
		execs.Add(1)
		frame0, err := readFrame(r.Body)
		if err != nil {
			t.Errorf("stripper: reading frame 0: %v", err)
			return
		}
		hs, ok := decodeHandshake(frame0)
		if !ok {
			t.Errorf("stripper: coordinator sent a frame 0 that is not a handshake: %q", frame0)
			return
		}
		var bare bytes.Buffer
		if err := writeFrame(&bare, hs.Plan); err != nil {
			t.Error(err)
			return
		}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(io.MultiReader(&bare, r.Body))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r2)
		if rec.Code == http.StatusBadRequest {
			rejected.Add(1)
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	t.Cleanup(stripper.Close)
	healthy := httptest.NewServer(NewWorker(nil, dir).Handler())
	t.Cleanup(healthy.Close)

	reg := commands.NewStd()
	agg.Install(reg)
	pool := NewPool(stripper.URL, healthy.URL)
	var out sink
	err := pool.ExecRemote(context.Background(), &runtime.RemoteRequest{
		Spec: &dfg.RemoteSpec{
			Worker: stripper.URL,
			Stages: []dfg.FusedStage{{Name: "tr", Args: []string{"a-z", "A-Z"}}},
			Framed: true,
		},
		Ins: []commands.ChunkReader{&oneChunk{b: []byte("light touch\n")}},
		Out: &out, Reg: reg, FS: commands.OSFS{Dir: dir}, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "LIGHT TOUCH\n" {
		t.Fatalf("output = %q", got)
	}
	if execs.Load() != 1 || rejected.Load() != 1 {
		t.Fatalf("worker behind the stripper saw %d /exec requests and rejected %d with 400, want 1 and 1",
			execs.Load(), rejected.Load())
	}
	stats := pool.Stats()
	if st := stats[0]; st.Requests != 1 || st.Failures != 1 || st.RedispatchedRemote != 1 || st.Redispatched != 0 || st.Healthy {
		t.Errorf("rejecting worker row = %+v, want 1 request, 1 failure, 1 remote re-dispatch, down", st)
	}
	if st := stats[1]; st.Requests != 1 || st.Failures != 0 || !st.Healthy {
		t.Errorf("surviving worker row = %+v, want 1 clean request", st)
	}
}

// TestWorkerJailsSandboxedPlan: the handshake's sandbox bit confines a
// plan to the worker's own directory. A file-range spec naming a file
// outside it is refused by the worker and then by the coordinator's
// local rung — the same jailed filesystem all the way down — while the
// unsandboxed request reads it, as the shared-fs contract allows.
func TestWorkerJailsSandboxedPlan(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret.txt")
	if err := os.WriteFile(secret, []byte("secret\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv := httptest.NewServer(NewWorker(nil, dir).Handler())
	t.Cleanup(srv.Close)
	reg := commands.NewStd()
	for _, jail := range []bool{false, true} {
		pool := NewPool(srv.URL)
		var out sink
		err := pool.ExecRemote(context.Background(), &runtime.RemoteRequest{
			Spec: &dfg.RemoteSpec{
				Worker: srv.URL,
				Stages: []dfg.FusedStage{{Name: "tr", Args: []string{"a-z", "A-Z"}}},
				Path:   secret, Slice: 0, Of: 1,
			},
			Out: &out, Reg: reg, FS: commands.OSFS{Dir: dir, Jail: jail}, Stderr: io.Discard,
		})
		switch {
		case !jail && (err != nil || out.String() != "SECRET\n"):
			t.Errorf("unsandboxed: err=%v out=%q", err, out.String())
		case jail && (!errors.Is(err, commands.ErrJailEscape) || out.Len() != 0):
			t.Errorf("sandboxed: err=%v out=%q, want ErrJailEscape and no output", err, out.String())
		case jail && pool.Stats()[0].Failures != 1:
			t.Errorf("sandboxed: the worker did not refuse the plan itself: %+v", pool.Stats()[0])
		}
	}
}
