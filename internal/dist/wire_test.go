package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/pash"
)

// TestDistributedStreamPlanStructure: branches whose output is not one
// frame per input frame plan as whole-stream remote shards spread across
// the pool, each carrying the plan-cache key workers use to skip
// DecodePlan on repeat dispatches. A commutative sort absorbs the
// round-robin merge, so its branch — the stateless stages and the sort
// map — ships as one linear shard; an order-sensitive consumer (uniq,
// sort -f) keeps its barrier split, whose map shards group with their
// interior aggregate into tree shards.
func TestDistributedStreamPlanStructure(t *testing.T) {
	pool := dist.NewPool("http://w1", "http://w2")
	sess := pash.NewSession(pash.DefaultOptions(8))
	sess.UseWorkers(pool)
	streamedShards := func(script string) (shards []*dfg.RemoteSpec) {
		t.Helper()
		plan, err := sess.CompileExec(script)
		if err != nil {
			t.Fatal(err)
		}
		var g *dfg.Graph
		for _, item := range plan.Items {
			if item.Graph != nil {
				g = item.Graph
			}
		}
		if g == nil {
			t.Fatal("no compiled region")
		}
		workers := map[string]int{}
		for _, n := range g.Nodes {
			if n.Kind != dfg.KindRemote || !n.Remote.Streamed {
				continue
			}
			shards = append(shards, n.Remote)
			workers[n.Remote.Worker]++
			if n.Remote.Key == "" {
				t.Errorf("streamed shard missing plan-cache key: %+v", n.Remote)
			}
		}
		if len(workers) != 2 || workers["http://w1"] != workers["http://w2"] {
			t.Errorf("%s: streamed shard assignment unbalanced: %v", script, workers)
		}
		return shards
	}

	branches, uniqMaps := 0, 0
	for _, spec := range streamedShards(`cat in.txt | rev | sort | uniq`) {
		switch last := spec.Stages[len(spec.Stages)-1].Name; {
		case spec.Agg != nil:
			t.Errorf("round-robin-fed branches grouped into a tree shard: %+v", spec)
		case last == "sort" && len(spec.Stages) > 1 && spec.Stages[len(spec.Stages)-2].Name == "rev":
			branches++
		case last == "uniq":
			uniqMaps++
		}
	}
	if branches != 8 || uniqMaps != 8 {
		t.Errorf("streamed shards: %d rev|sort branches and %d uniq maps, want 8 and 8", branches, uniqMaps)
	}

	aggInterior := 0
	for _, spec := range streamedShards(`cat in.txt | rev | sort -f`) {
		if spec.Agg != nil {
			aggInterior++
		}
	}
	if aggInterior == 0 {
		t.Error("no agg-tree interior node shipped as a streamed shard")
	}
}

// logLikeInput builds structured access-log text — the workload class
// the wire-savings target is stated for. Random-word corpora sit on an
// LZ4 entropy floor near 2x; real log lines share long literal runs.
func logLikeInput(lines int) string {
	paths := []string{"/index.html", "/api/v1/items", "/static/app.js", "/health", "/api/v1/users/profile"}
	agents := []string{"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36", "curl/8.5.0", "Go-http-client/2.0"}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "10.0.%d.%d - - [07/Aug/2026:10:%02d:%02d +0000] \"GET %s HTTP/1.1\" %d %d \"-\" \"%s\"\n",
			i%250, (i*7)%250, i%60, (i*13)%60, paths[i%len(paths)], 200+(i%3)*100, 512+(i*37)%4096, agents[i%len(agents)])
	}
	return sb.String()
}

// linkRate paces the throttled proxy: 512 KiB/s, over 20x below the
// codec even under the race detector, so the rule must compress.
const linkRate = 512 << 10

// throttledWorker serves one worker on a unix socket in dir behind a
// proxy that paces the coordinator's sends at linkRate — a slow link
// with nothing else wrong — and returns the proxy's address. Responses
// come back at full speed.
func throttledWorker(t *testing.T, dir string) string {
	t.Helper()
	target := strings.TrimPrefix(unixWorker(t, dir, "paced-worker.sock"), "unix:")
	ln, err := net.Listen("unix", filepath.Join(dir, "paced.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				w, err := net.Dial("unix", target)
				if err != nil {
					return
				}
				defer w.Close()
				go io.Copy(c, w)
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					time.Sleep(time.Duration(n) * time.Second / linkRate)
					if _, werr := w.Write(buf[:n]); err != nil || werr != nil {
						return
					}
				}
			}()
		}
	}()
	return "unix:" + ln.Addr().String()
}

// overSlowLink runs script twice through one worker behind the paced
// proxy — the first run teaches the pool the link, since the socket
// buffer takes a connection's first frames at memory speed — and
// returns the second run's output and outbound meters: raw bytes, wire
// bytes and lz4 frames.
func overSlowLink(t *testing.T, dir, script string) (out string, raw, wire, lz4 int64) {
	t.Helper()
	pool := pash.NewWorkerPool(throttledWorker(t, dir))
	runScript(t, script, dir, 2, pool)
	before := pool.Stats()[0]
	out = runScript(t, script, dir, 2, pool)
	after := pool.Stats()[0]
	return out, after.BytesOut - before.BytesOut, after.WireBytesOut - before.WireBytesOut, after.LZ4FramesOut - before.LZ4FramesOut
}

// TestWireCompressionSavesBytes: on log-structured text sent over a slow
// link, lz4 frames move at least 3x fewer bytes than the raw chunks
// they carry, and the output is the local output.
func TestWireCompressionSavesBytes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log.txt"), []byte(logLikeInput(6000)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat log.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 2, nil)
	got, raw, wire, _ := overSlowLink(t, dir, script)
	if got != local {
		t.Fatalf("compressed run diverged (%d vs %d bytes)", len(got), len(local))
	}
	if raw == 0 {
		t.Fatal("no traffic shipped")
	}
	if ratio := float64(raw) / float64(wire); ratio < 3 {
		t.Errorf("lz4 wire savings = %.2fx (%d raw, %d wire), want >= 3x on log text", ratio, raw, wire)
	}
}

// TestCompressionFollowsTheWire: the same log-text job over two links.
// Behind a proxy paced far below the codec, the coordinator's sends go
// lz4 and move at least 2x fewer bytes than they carry — only the
// compressed path can do that. Over a plain unix socket, which moves
// bytes faster than lz4 can shrink them, every frame in both directions
// goes raw and costs exactly its tag byte. Output is byte-identical to
// local both ways.
func TestCompressionFollowsTheWire(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log.txt"), []byte(logLikeInput(6000)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat log.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 2, nil)

	fast := pash.NewWorkerPool(unixWorker(t, dir, "fast.sock"))
	if got := runScript(t, script, dir, 2, fast); got != local {
		t.Fatalf("unix-socket run diverged (%d vs %d bytes)", len(got), len(local))
	}
	st := fast.Stats()[0]
	if st.BytesOut == 0 || st.BytesIn == 0 {
		t.Fatalf("no traffic shipped: %+v", st)
	}
	if st.WireBytesOut != st.BytesOut+st.ChunksOut || st.WireBytesIn != st.BytesIn+st.ChunksIn || st.LZ4FramesOut != 0 {
		t.Errorf("unix socket compressed: %+v, want wire = raw + 1 per frame both ways", st)
	}

	got, raw, wire, lz4 := overSlowLink(t, dir, script)
	if got != local {
		t.Fatalf("throttled run diverged (%d vs %d bytes)", len(got), len(local))
	}
	if lz4 == 0 || float64(raw) < 2*float64(wire) {
		t.Errorf("throttled link: %d raw bytes (%d lz4 frames) moved as %d wire bytes, want at least 2x fewer", raw, lz4, wire)
	}
}

// TestWorkerPlanCacheCounters: the first execution of a region pays
// worker-side plan decodes (misses); re-running the identical region
// through the same coordinator session must be served from the worker
// plan cache — hits grow, misses do not. One session throughout: plan
// keys are salted with the coordinator's registry generation, so the
// cache is scoped to a coordinator lifetime by design (a fresh session
// would mint fresh keys).
func TestWorkerPlanCacheCounters(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(2000, 23)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat in.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 8, nil)
	pool := startWorkers(t, 2, dir)
	sess := pash.NewSession(pash.DefaultOptions(8))
	sess.Dir = dir
	sess.UseWorkers(pool)
	run := func() string {
		var out bytes.Buffer
		code, err := sess.Run(context.Background(), script, strings.NewReader(""), &out, os.Stderr)
		if err != nil || code != 0 {
			t.Fatalf("run: code %d err %v", code, err)
		}
		return out.String()
	}

	counters := func() (hits, misses int64) {
		for _, st := range pool.Stats() {
			hits += st.PlanCacheHits
			misses += st.PlanCacheMisses
		}
		return
	}

	if got := run(); got != local {
		t.Fatalf("cold run diverged (%d vs %d bytes)", len(got), len(local))
	}
	hits1, misses1 := counters()
	if misses1 == 0 {
		t.Fatal("cold run registered no plan-cache misses — the handshake key is not reaching workers")
	}

	if got := run(); got != local {
		t.Fatalf("warm run diverged (%d vs %d bytes)", len(got), len(local))
	}
	hits2, misses2 := counters()
	if hits2 <= hits1 {
		t.Errorf("warm run gained no plan-cache hits (%d -> %d)", hits1, hits2)
	}
	if misses2 != misses1 {
		t.Errorf("warm run of an identical region re-missed the plan cache (%d -> %d misses)", misses1, misses2)
	}
}
