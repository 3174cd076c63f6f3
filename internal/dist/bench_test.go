package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/pash"
)

// distBenchScript is a compute-bound stateless chain (NFA regex over
// every line) — the workload shape sharding exists for. Each branch —
// the fused cat|tr|grep chain and wc -l's map — ships as one stream; the
// coordinator sums the counts.
const distBenchScript = `cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number).*(time|day|zebra)' | wc -l`

// unixWorker serves one worker rooted at dir on a unix socket of the
// given name in dir and returns its pool address.
func unixWorker(tb testing.TB, dir, name string) string {
	tb.Helper()
	sock := filepath.Join(dir, name)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		tb.Fatal(err)
	}
	srv := &http.Server{Handler: dist.NewWorker(nil, dir).Handler()}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return "unix:" + sock
}

// benchPool starts n unix-socket workers rooted at dir.
func benchPool(tb testing.TB, n int, dir string) *pash.WorkerPool {
	tb.Helper()
	pool := pash.NewWorkerPool()
	for i := 0; i < n; i++ {
		pool.Add(unixWorker(tb, dir, fmt.Sprintf("bw%d.sock", i)))
	}
	return pool
}

func timeOnce(tb testing.TB, dir string, width int, pool *pash.WorkerPool) (time.Duration, string) {
	tb.Helper()
	sess := pash.NewSession(pash.DefaultOptions(width))
	sess.Dir = dir
	if pool != nil {
		sess.UseWorkers(pool)
	}
	run := func() (string, time.Duration) {
		var out bytes.Buffer
		start := time.Now()
		if _, err := sess.Run(context.Background(), distBenchScript, strings.NewReader(""), &out, os.Stderr); err != nil {
			tb.Fatal(err)
		}
		return out.String(), time.Since(start)
	}
	run() // warm the plan cache
	var best time.Duration
	var output string
	for i := 0; i < 3; i++ {
		out, d := run()
		if best == 0 || d < best {
			best = d
		}
		output = out
	}
	return best, output
}

// TestDistOverheadAtWidth8: distributed execution over two local
// unix-socket workers produces the local output at width 8 for both
// shard shapes. Workers on the same box add no cores, so the logged
// ratios are pure transport cost; they are not asserted — the dist-2w
// workload in BENCHMARK.json guards the speed.
func TestDistOverheadAtWidth8(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(120_000, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := benchPool(t, 2, dir)
	local, want := timeOnce(t, dir, 8, nil)
	pool.SetSharedFS(false)
	streamed, gotS := timeOnce(t, dir, 8, pool)
	pool.SetSharedFS(true)
	ranged, gotR := timeOnce(t, dir, 8, pool)
	if gotS != want || gotR != want {
		t.Fatalf("distributed output diverged: %q / %q vs %q", gotS, gotR, want)
	}
	t.Logf("local %v, streamed %v (%.2fx), range %v (%.2fx)", local,
		streamed, streamed.Seconds()/local.Seconds(), ranged, ranged.Seconds()/local.Seconds())
}

// BenchmarkDistThroughput reports end-to-end bytes/sec of the
// compute-bound pipeline at width 8: local vs distributed over two
// local workers, both shard shapes, over unix sockets and over loopback
// TCP (the transport dist-2w uses).
func BenchmarkDistThroughput(b *testing.B) {
	dir := b.TempDir()
	input := makeInput(120_000, 3)
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(input), 0o644); err != nil {
		b.Fatal(err)
	}
	pool, tcp := benchPool(b, 2, dir), startWorkers(b, 2, dir)
	for _, cfg := range []struct {
		name     string
		pool     *pash.WorkerPool
		sharedFS bool
	}{
		{"local", nil, false},
		{"dist-stream", pool, false},
		{"dist-range", pool, true},
		{"dist-stream-tcp", tcp, false},
		{"dist-range-tcp", tcp, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			if cfg.pool != nil {
				cfg.pool.SetSharedFS(cfg.sharedFS)
			}
			sess := pash.NewSession(pash.DefaultOptions(8))
			sess.Dir = dir
			if cfg.pool != nil {
				sess.UseWorkers(cfg.pool)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out bytes.Buffer
				if _, err := sess.Run(context.Background(), distBenchScript, strings.NewReader(""), &out, os.Stderr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
