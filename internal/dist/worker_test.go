package dist

import (
	"bytes"
	"context"
	"encoding/json"
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
			Worker:   stripper.URL,
			Stages:   []dfg.FusedStage{{Name: "tr", Args: []string{"a-z", "A-Z"}}},
			Streamed: true,
		},
		In:  &oneChunk{b: []byte("light touch\n")},
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

// readWatch is a request body past frame 0 that records whether the
// worker read any of it.
type readWatch struct {
	r    io.Reader
	read bool
}

func (w *readWatch) Read(p []byte) (int, error) {
	w.read = true
	return w.r.Read(p)
}

// TestHandshakeVersionRejected: a worker accepts only its own pash_wire
// version. A version-2 peer (which tagged every data frame) and a
// version-4 one each get 400 before any input frame is read; the same
// request at version 3 runs.
func TestHandshakeVersionRejected(t *testing.T) {
	plan, err := dfg.EncodePlan(&dfg.RemoteSpec{
		Stages:   []dfg.FusedStage{{Name: "tr", Args: []string{"a-z", "A-Z"}}},
		Streamed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	worker := NewWorker(nil, t.TempDir()).Handler()
	for _, tc := range []struct {
		version int
		code    int
	}{{2, http.StatusBadRequest}, {4, http.StatusBadRequest}, {wireVersion, http.StatusOK}} {
		hs, err := json.Marshal(&wireHandshake{Wire: tc.version, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		var head, input bytes.Buffer
		writeFrame(&head, hs)
		writeFrame(&input, []byte("light touch\n"))
		writeFrame(&input, nil)
		rest := &readWatch{r: &input}
		req := httptest.NewRequest(http.MethodPost, "/exec", io.MultiReader(&head, rest))
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("pash_wire %d: status %d, want %d", tc.version, rec.Code, tc.code)
		}
		if tc.code != http.StatusOK && rest.read {
			t.Errorf("pash_wire %d: the worker read input frames before refusing the handshake", tc.version)
		}
		if tc.code == http.StatusOK {
			out, err := readFrame(rec.Body)
			if err != nil || string(out) != "LIGHT TOUCH\n" {
				t.Errorf("pash_wire %d: first output frame = %q, %v", tc.version, out, err)
			}
		}
	}
}

// TestWorkerSingleStream posts a handshake and data frames straight to
// /exec. A body that ends before its separator fails the request with
// an error trailer, never a clean short output; a chain that stops
// reading early (head) still answers exit 0 with the rest of the body
// drained; and a plan with no stages — an older coordinator's
// aggregation tree — gets 400 before any input frame is read.
func TestWorkerSingleStream(t *testing.T) {
	worker := NewWorker(nil, t.TempDir()).Handler()
	exec := func(plan string, frames [][]byte) (*http.Response, *bytes.Reader) {
		t.Helper()
		hs, err := json.Marshal(&wireHandshake{Wire: wireVersion, Plan: json.RawMessage(plan)})
		if err != nil {
			t.Fatal(err)
		}
		var head, input bytes.Buffer
		writeFrame(&head, hs)
		for _, f := range frames {
			writeFrame(&input, f)
		}
		rest := bytes.NewReader(input.Bytes())
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/exec", io.MultiReader(&head, rest)))
		return rec.Result(), rest
	}
	line := bytes.Repeat([]byte("light touch\n"), 1000)

	resp, _ := exec(`{"stages":[{"name":"tr","args":["a-z","A-Z"]}],"streamed":true}`, [][]byte{line, line})
	if resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Pash-Error") == "" || resp.Trailer.Get("X-Pash-Exit-Code") != "1" {
		t.Errorf("body without separator: status %d, trailers %v; want an X-Pash-Error and exit 1", resp.StatusCode, resp.Trailer)
	}

	frames := [][]byte{line, line, line, line, line, nil}
	resp, rest := exec(`{"stages":[{"name":"head","args":["-n","1"]}],"streamed":true}`, frames)
	out, err := readFrame(resp.Body)
	if resp.StatusCode != http.StatusOK || err != nil || string(out) != "light touch\n" {
		t.Errorf("head -n 1: status %d, first frame %q, %v", resp.StatusCode, out, err)
	}
	if msg, code := resp.Trailer.Get("X-Pash-Error"), resp.Trailer.Get("X-Pash-Exit-Code"); msg != "" || code != "0" {
		t.Errorf("head -n 1: exit %q, error %q; want exit 0", code, msg)
	}
	if rest.Len() != 0 {
		t.Errorf("head -n 1: %d body bytes left unread", rest.Len())
	}

	resp, rest = exec(`{"streamed":true,"branches":[[{"name":"sort"}]],"agg":{"name":"sort","args":["-m"]}}`, frames)
	if resp.StatusCode != http.StatusBadRequest || int64(rest.Len()) != rest.Size() {
		t.Errorf("tree plan: status %d after reading %d input bytes; want 400 before any", resp.StatusCode, rest.Size()-int64(rest.Len()))
	}
}
