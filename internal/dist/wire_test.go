package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
			if n.Remote.Framed {
				t.Errorf("remote node is both framed and streamed: %+v", n.Remote)
			}
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

// TestWireCompressionSavesBytes: on log-structured text the negotiated
// lz4 frames must move at least 3x fewer bytes than the raw chunks they
// carry, and switching compression off must put the meters back in
// exact agreement — same output bytes either way.
func TestWireCompressionSavesBytes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log.txt"), []byte(logLikeInput(12000)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat log.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 8, nil)

	wireAndRaw := func(pool *pash.WorkerPool) (wire, raw int64) {
		for _, st := range pool.Stats() {
			wire += st.WireBytesOut + st.WireBytesIn
			raw += st.BytesOut + st.BytesIn
		}
		return
	}

	pool := startWorkers(t, 2, dir)
	if got := runScript(t, script, dir, 8, pool); got != local {
		t.Fatalf("compressed run diverged (%d vs %d bytes)", len(got), len(local))
	}
	wire, raw := wireAndRaw(pool)
	if raw == 0 {
		t.Fatal("no traffic shipped")
	}
	if ratio := float64(raw) / float64(wire); ratio < 3 {
		t.Errorf("lz4 wire savings = %.2fx (%d raw, %d wire), want >= 3x on log text", ratio, raw, wire)
	}

	plain := startWorkers(t, 2, dir)
	plain.SetCompression(false)
	if got := runScript(t, script, dir, 8, plain); got != local {
		t.Fatalf("uncompressed run diverged (%d vs %d bytes)", len(got), len(local))
	}
	wire, raw = wireAndRaw(plain)
	if wire != raw {
		t.Errorf("compression off but wire bytes (%d) != raw bytes (%d)", wire, raw)
	}
}

// TestCompressionAutoPolicy: under the default auto policy a same-host
// unix-socket worker is offered no lz4 and moves raw frames — bytes are
// free there and the codec's CPU is not — so the wire meters track
// the raw meters exactly; forcing compression on the same pool then
// shrinks the wire.
func TestCompressionAutoPolicy(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log.txt"), []byte(logLikeInput(6000)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat log.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 8, nil)
	pool := benchPool(t, 2, dir)

	if got := runScript(t, script, dir, 8, pool); got != local {
		t.Fatalf("auto-policy run diverged (%d vs %d bytes)", len(got), len(local))
	}
	var wire, raw int64
	for _, st := range pool.Stats() {
		wire += st.WireBytesOut + st.WireBytesIn
		raw += st.BytesOut + st.BytesIn
	}
	if raw == 0 {
		t.Fatal("no traffic shipped")
	}
	if wire != raw {
		t.Errorf("auto policy compressed a unix-socket connection: %d wire vs %d raw bytes", wire, raw)
	}

	pool.SetCompression(true)
	if got := runScript(t, script, dir, 8, pool); got != local {
		t.Fatalf("forced-lz4 run diverged (%d vs %d bytes)", len(got), len(local))
	}
	var wire2, raw2 int64
	for _, st := range pool.Stats() {
		wire2 += st.WireBytesOut + st.WireBytesIn
		raw2 += st.BytesOut + st.BytesIn
	}
	if wire2-wire >= raw2-raw {
		t.Errorf("forcing compression on saved nothing: +%d wire vs +%d raw bytes", wire2-wire, raw2-raw)
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
