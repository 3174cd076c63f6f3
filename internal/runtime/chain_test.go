package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/internal/runtime"
)

// chunkSource serves a fixed sequence of chunks, empty ones included.
type chunkSource struct{ chunks []string }

func (s *chunkSource) ReadChunk() ([]byte, error) {
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	b := append(commands.GetBlock(), s.chunks[0]...)
	s.chunks = s.chunks[1:]
	return b, nil
}

// chunkSink keeps every chunk it is handed as one frame.
type chunkSink struct{ frames []string }

func (s *chunkSink) WriteChunk(b []byte) error {
	s.frames = append(s.frames, string(b))
	commands.PutBlock(b)
	return nil
}

func (s *chunkSink) Write(p []byte) (int, error) {
	s.frames = append(s.frames, string(p))
	return len(p), nil
}

// pipelineOracle is the width-1 pipeline: each stage's command run to
// completion over the previous stage's whole output. It shares nothing
// with StageChain.
func pipelineOracle(t *testing.T, stages []dfg.FusedStage, input string) (string, int) {
	t.Helper()
	status := 0
	for _, st := range stages {
		var out bytes.Buffer
		err := commands.Std().Run(st.Name, &commands.Context{
			Args: st.Args, Stdin: strings.NewReader(input), Stdout: &out, Stderr: io.Discard, FS: commands.OSFS{},
		})
		var exit *commands.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("oracle %s: %v", st.Name, err)
		}
		status = commands.ExitCode(err)
		input = out.String()
	}
	return input, status
}

// withoutKernels shadows the chain's commands with themselves: a
// user-registered implementation hides the builtin kernel, so the same
// chain runs through the registry's commands.
func withoutKernels(stages []dfg.FusedStage) *commands.Registry {
	reg := commands.NewStd()
	for _, st := range stages {
		f, _ := reg.Lookup(st.Name)
		reg.Register(st.Name, f)
	}
	return reg
}

func startUnixWorker(t *testing.T, reg *commands.Registry, dir, name string) *dist.Pool {
	t.Helper()
	sock := filepath.Join(dir, name)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: dist.NewWorker(reg, dir).Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dist.NewPool("unix:" + sock)
}

// chainGraph plans stdin -> stages... -> stdout at the given width with
// the round-robin split, so the stages run as framed (fused) replicas.
func chainGraph(t *testing.T, reg *commands.Registry, stages []dfg.FusedStage, width int) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	var prev *dfg.Node
	for _, st := range stages {
		args := make([]dfg.Arg, len(st.Args))
		for i, a := range st.Args {
			args[i] = dfg.Lit(a)
		}
		n := g.AddNode(dfg.NewNode(dfg.KindCommand, st.Name, args, annot.Stateless))
		if prev == nil {
			n.In = append(n.In, g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindStdin}, To: n}))
		} else {
			g.Connect(prev, n)
		}
		n.StdinInput = 0
		prev = n
	}
	prev.Out = append(prev.Out, g.AddEdge(&dfg.Edge{From: prev, Sink: dfg.Binding{Kind: dfg.BindStdout}}))
	dfg.Apply(g, dfg.Options{
		Width: width, Split: width > 1, Eager: true,
		KernelCapable: reg.KernelCapable,
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStageChainEquivalence is the one equivalence table of the chain
// runner. Every way the system runs a chain of stages — a StageChain
// directly, the executor's fused nodes and framed replicas, the
// coordinator's local interpretation of a remote spec, a worker behind a
// unix socket — through kernels and through the registry's commands, over
// the whole stream and (the chain and the framed replicas) once per
// chunk, must compute the width-1
// pipeline's bytes: in per-chunk mode one output chunk per input chunk,
// each the pipeline's output over that chunk; in stream mode the last
// stage's exit status. The worker and the coordinator run the same
// StageChain over the same spec, so "they interpret a spec identically"
// holds by construction and is checked here.
func TestStageChainEquivalence(t *testing.T) {
	chains := map[string][]dfg.FusedStage{
		"tr|grep|cut": {
			{Name: "tr", Args: []string{"a-z", "A-Z"}},
			{Name: "grep", Args: []string{"-v", "XYZZY"}},
			{Name: "cut", Args: []string{"-d", " ", "-f", "1-2"}},
		},
		"grep no match": {{Name: "grep", Args: []string{"NOSUCHTOKEN"}}},
		"cat":           {{Name: "cat"}},
	}
	rng := rand.New(rand.NewSource(21))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "xyzzy"}
	lines := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			for j, k := 0, 1+rng.Intn(5); j < k; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(words[rng.Intn(len(words))])
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	inputs := map[string][]string{
		"line-aligned chunks":     {lines(2500), lines(1), lines(2000)},
		"unterminated last chunk": {lines(500), lines(40) + "final unterminated line"},
		"an empty chunk":          {lines(200), "", lines(300)},
		"empty stream":            {},
	}
	dir := t.TempDir()
	ctx := context.Background()

	for cname, stages := range chains {
		for form, reg := range map[string]*commands.Registry{"kernels": commands.NewStd(), "commands": withoutKernels(stages)} {
			if capable := reg.KernelCapable(stages[0].Name, stages[0].Args); capable != (form == "kernels") {
				t.Fatalf("%s/%s: registry kernel-capable = %v", cname, form, capable)
			}
			pool := startUnixWorker(t, reg, dir, fmt.Sprintf("%p.sock", reg))
			request := func(spec dfg.RemoteSpec, chunks []string, out *chunkSink) *runtime.RemoteRequest {
				spec.Stages = stages
				return &runtime.RemoteRequest{
					Spec: &spec, In: &chunkSource{chunks: chunks}, Out: out,
					Reg: reg, FS: commands.OSFS{Dir: dir}, Stderr: io.Discard,
				}
			}
			// Each runner returns the output frames and, where the mode has
			// one, the chain's exit status (-1: none reported).
			type runner func(chunks []string) ([]string, int, error)
			stream := map[string]runner{
				"chain": func(chunks []string) ([]string, int, error) {
					chain, err := runtime.NewStageChain(reg, stages, commands.OSFS{Dir: dir}, nil, nil)
					if err != nil {
						return nil, 0, err
					}
					var out chunkSink
					status, err := chain.Stream(runtime.ChunkReaderAsReader(&chunkSource{chunks: chunks}), &out)
					return out.frames, status, err
				},
				"local": func(chunks []string) ([]string, int, error) {
					var out chunkSink
					err := runtime.ExecRemoteLocal(ctx, request(dfg.RemoteSpec{Streamed: true}, chunks, &out))
					return out.frames, -1, err
				},
				"worker": func(chunks []string) ([]string, int, error) {
					var out chunkSink
					err := pool.ExecRemote(ctx, request(dfg.RemoteSpec{Streamed: true, Worker: pool.WorkerNames()[0]}, chunks, &out))
					return out.frames, -1, err
				},
			}
			perChunk := map[string]runner{
				"chain": func(chunks []string) ([]string, int, error) {
					chain, err := runtime.NewStageChain(reg, stages, commands.OSFS{Dir: dir}, nil, nil)
					if err != nil {
						return nil, 0, err
					}
					var out chunkSink
					err = chain.PerChunk(ctx, &chunkSource{chunks: chunks}, &out)
					return out.frames, -1, err
				},
			}
			// The executor: width 1 runs the chain as one (fused) node whose
			// status is the graph's; width 4 runs it as framed replicas
			// between a round-robin split and its merge. DisableFusion must
			// change nothing but the form.
			for _, width := range []int{1, 4} {
				for _, unfused := range []bool{false, true} {
					stream[fmt.Sprintf("executor width %d unfused=%v", width, unfused)] = func(chunks []string) ([]string, int, error) {
						var out bytes.Buffer
						res, err := runtime.Execute(ctx, chainGraph(t, reg, stages, width), reg,
							runtime.StdIO{Stdin: strings.NewReader(strings.Join(chunks, "")), Stdout: &out},
							runtime.Config{DisableFusion: unfused})
						if err != nil {
							return nil, 0, err
						}
						status := -1
						if width == 1 {
							status = res.ExitCode
						}
						return []string{out.String()}, status, nil
					}
				}
			}

			for iname, chunks := range inputs {
				want, wantStatus := pipelineOracle(t, stages, strings.Join(chunks, ""))
				for rname, run := range stream {
					frames, status, err := run(chunks)
					if err != nil {
						t.Errorf("%s/%s/%s/stream/%s: %v", cname, form, rname, iname, err)
						continue
					}
					if got := strings.Join(frames, ""); got != want {
						t.Errorf("%s/%s/%s/stream/%s: %d bytes, the pipeline wrote %d", cname, form, rname, iname, len(got), len(want))
					}
					if status >= 0 && status != wantStatus {
						t.Errorf("%s/%s/%s/stream/%s: status %d, the pipeline's last stage exited %d", cname, form, rname, iname, status, wantStatus)
					}
				}
				for rname, run := range perChunk {
					frames, _, err := run(chunks)
					if err != nil {
						t.Errorf("%s/%s/%s/per-chunk/%s: %v", cname, form, rname, iname, err)
						continue
					}
					if len(frames) != len(chunks) {
						t.Errorf("%s/%s/%s/per-chunk/%s: %d output chunks for %d input chunks", cname, form, rname, iname, len(frames), len(chunks))
						continue
					}
					for i, chunk := range chunks {
						if wantFrame, _ := pipelineOracle(t, stages, chunk); frames[i] != wantFrame {
							t.Errorf("%s/%s/%s/per-chunk/%s: chunk %d diverged from the pipeline over that chunk", cname, form, rname, iname, i)
						}
					}
					if got := strings.Join(frames, ""); got != want {
						t.Errorf("%s/%s/%s/per-chunk/%s: chunks concatenate to %d bytes, the pipeline wrote %d", cname, form, rname, iname, len(got), len(want))
					}
				}
			}
		}
	}
}
