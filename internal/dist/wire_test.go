package dist_test

import (
	"bytes"
	"context"
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
// sort -s under a key) keeps its barrier split, whose map shards ship
// while the aggregation tree above them stays on the coordinator. No
// remote node reads more than one stream.
func TestDistributedStreamPlanStructure(t *testing.T) {
	pool := dist.NewPool("http://w1", "http://w2")
	sess := pash.NewSession(pash.DefaultOptions(8))
	sess.UseWorkers(pool)
	compile := func(script string) (g *dfg.Graph, shards []*dfg.RemoteSpec) {
		t.Helper()
		plan, err := sess.CompileExec(script)
		if err != nil {
			t.Fatal(err)
		}
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
			if n.Kind != dfg.KindRemote {
				continue
			}
			if len(n.In) > 1 {
				t.Errorf("%s: remote node reads %d streams: %+v", script, len(n.In), n.Remote)
			}
			if !n.Remote.Streamed {
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
		return g, shards
	}

	branches, uniqMaps := 0, 0
	_, shards := compile(`cat in.txt | rev | sort | uniq`)
	for _, spec := range shards {
		switch last := spec.Stages[len(spec.Stages)-1].Name; {
		case last == "sort" && len(spec.Stages) > 1 && spec.Stages[len(spec.Stages)-2].Name == "rev":
			branches++
		case last == "uniq":
			uniqMaps++
		}
	}
	if branches != 8 || uniqMaps != 8 {
		t.Errorf("streamed shards: %d rev|sort branches and %d uniq maps, want 8 and 8", branches, uniqMaps)
	}

	// Width 8 builds an aggregation tree with interior nodes over the
	// barrier-split map shards; every one of them runs on the coordinator.
	g, shards := compile(`cat in.txt | rev | sort -s -k2`)
	if len(shards) != 8 {
		t.Errorf("sort -s -k2: %d streamed shards, want 8", len(shards))
	}
	interior := 0
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindAgg && len(n.Out) == 1 && n.Out[0].To != nil && n.Out[0].To.Kind == dfg.KindAgg {
			interior++
		}
	}
	if interior == 0 {
		t.Error("sort -s -k2 at width 8: no interior aggregate on the coordinator")
	}
}

// TestCompressionFollowsTheWire: nothing on the wire rewrites a
// payload. Over a unix socket and over loopback TCP, every data frame in
// either direction costs exactly its 8-byte header on top of the chunk
// it carries — WireBytes − Bytes = 8 × Chunks, out and in — and the
// output is byte-identical to local.
func TestCompressionFollowsTheWire(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(20000, 17)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat in.txt | tr A-Z a-z | sort`
	local := runScript(t, script, dir, 2, nil)
	for _, link := range []struct {
		name string
		pool *pash.WorkerPool
	}{
		{"unix", pash.NewWorkerPool(unixWorker(t, dir, "w.sock"))},
		{"tcp", startWorkers(t, 1, dir)},
	} {
		if got := runScript(t, script, dir, 2, link.pool); got != local {
			t.Fatalf("%s: output diverged (%d vs %d bytes)", link.name, len(got), len(local))
		}
		st := link.pool.Stats()[0]
		if st.ChunksOut == 0 || st.ChunksIn == 0 {
			t.Fatalf("%s: no traffic shipped: %+v", link.name, st)
		}
		if st.WireBytesOut-st.BytesOut != 8*st.ChunksOut || st.WireBytesIn-st.BytesIn != 8*st.ChunksIn {
			t.Errorf("%s: %+v, want wire = bytes + 8 per chunk both ways", link.name, st)
		}
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
