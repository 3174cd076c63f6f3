package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/pash"
)

// TestPlanRoundTrip: the wire plan format round-trips and validates. A
// plan must name its shape: a linear chain that is neither a file range
// nor streamed — what a coordinator that still shipped framed relays
// sends, its "framed" field dropped by the decoder — is refused.
func TestPlanRoundTrip(t *testing.T) {
	spec := &dfg.RemoteSpec{
		Worker:   "http://w1",
		Stages:   []dfg.FusedStage{{Name: "tr", Args: []string{"a-z", "A-Z"}}, {Name: "grep", Args: []string{"X"}}},
		Streamed: true,
	}
	data, err := dfg.EncodePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dfg.DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != spec.Worker || len(got.Stages) != 2 || !got.Streamed {
		t.Fatalf("round trip mangled spec: %+v", got)
	}
	for _, bad := range []string{"", "{}", `{"stages":[]}`, `{"stages":[{"name":""}]}`,
		`{"stages":[{"name":"tr"}],"path":"f","slice":3,"of":2}`,
		`{"stages":[{"name":"tr"}],"path":"f","slice":0,"of":1,"streamed":true}`,
		`{"stages":[{"name":"tr"}]}`,
		`{"stages":[{"name":"tr"}],"framed":true}`,
		// An older coordinator's aggregation-tree shard: no stages.
		`{"streamed":true,"branches":[[{"name":"sort"}],[{"name":"sort"}]],"agg":{"name":"sort","args":["-m"]}}`} {
		if _, err := dfg.DecodePlan([]byte(bad)); err == nil {
			t.Errorf("DecodePlan(%q) accepted invalid plan", bad)
		}
	}
}

// startWorkers launches n in-process workers over loopback TCP and
// returns a pool spanning them.
func startWorkers(t testing.TB, n int, dir string) *pash.WorkerPool {
	t.Helper()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(dist.NewWorker(nil, dir).Handler())
		t.Cleanup(ts.Close)
		names[i] = ts.URL
	}
	return pash.NewWorkerPool(names...)
}

// makeInput generates deterministic multi-line text.
func makeInput(lines int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "water", "People", "number", "X", "waltz", "time", "day", "zebra", "quick"}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var distScripts = []string{
	`cat in.txt | tr A-Z a-z | grep the | sort`,
	`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | grep -v '^$' | sort | uniq -c | sort -rn`,
	`cat in.txt | grep water | cut -d ' ' -f1 | wc -l`,
	`cat in.txt | rev | sort | uniq`,
	// At width 8 an aggregation tree with interior nodes over
	// barrier-split map shards: the shards ship, the tree stays local.
	`cat in.txt | rev | sort -s -k2`,
}

// runScript executes a script in dir with the given session options.
func runScript(t *testing.T, script, dir string, width int, pool *pash.WorkerPool) string {
	t.Helper()
	sess := pash.NewSession(pash.DefaultOptions(width))
	sess.Dir = dir
	if pool != nil {
		sess.UseWorkers(pool)
	}
	var out bytes.Buffer
	code, err := sess.Run(context.Background(), script, strings.NewReader(""), &out, os.Stderr)
	if err != nil {
		t.Fatalf("script %q (width %d, pool=%v): %v", script, width, pool != nil, err)
	}
	if code != 0 {
		t.Fatalf("script %q exit %d", script, code)
	}
	return out.String()
}

// TestDistributedEquivalence: execution with a pool of real HTTP
// workers is byte-identical to local execution, for the streamed and the
// file-range shapes and for the round-robin chains that stay local.
func TestDistributedEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(4000, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		pool := startWorkers(t, workers, dir)
		for _, sharedFS := range []bool{false, true} {
			pool.SetSharedFS(sharedFS)
			for _, script := range distScripts {
				local := runScript(t, script, dir, 8, nil)
				distOut := runScript(t, script, dir, 8, pool)
				if distOut != local {
					t.Errorf("workers=%d sharedFS=%v script %q:\ndistributed output diverged (%d vs %d bytes)",
						workers, sharedFS, script, len(distOut), len(local))
				}
			}
		}
		for _, st := range pool.Stats() {
			if !st.Healthy {
				t.Errorf("worker %s unexpectedly unhealthy: %+v", st.Name, st)
			}
		}
	}
}

// TestDistributedShipsWork: the pool actually receives traffic (the
// equivalence above is not all-local-fallback in disguise).
func TestDistributedShipsWork(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(3000, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := startWorkers(t, 2, dir)
	out := runScript(t, `cat in.txt | tr A-Z a-z | grep the | sort`, dir, 8, pool)
	if out == "" {
		t.Fatal("no output")
	}
	var requests, chunksIn, redis int64
	for _, st := range pool.Stats() {
		requests += st.Requests
		chunksIn += st.ChunksIn
		redis += st.Redispatched
	}
	if requests == 0 || chunksIn == 0 {
		t.Fatalf("pool saw no traffic: %+v", pool.Stats())
	}
	if redis != 0 {
		t.Fatalf("healthy pool redispatched %d chunks: %+v", redis, pool.Stats())
	}
}

// TestDistributedPlanStructure: with a pool attached, a round-robin
// stateless chain that ends at the merge stays on the coordinator as
// framed replicas, while a shared-fs pool turns the same region into
// self-sourcing file ranges assigned across the workers.
func TestDistributedPlanStructure(t *testing.T) {
	g := mustPlan(t, []string{"http://w1", "http://w2"}, false, 8)
	framed := 0
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRemote {
			t.Errorf("rr chain ending at the merge shipped: %+v", n.Remote)
		}
		if n.Framed {
			framed++
		}
	}
	if framed != 8 {
		t.Fatalf("framed replicas = %d, want 8", framed)
	}

	// Shared-fs pools turn the same region into self-sourcing file
	// ranges: no split node survives and no input bytes ship.
	g = mustPlan(t, []string{"http://w1", "http://w2"}, true, 8)
	ranges, splits := 0, 0
	workers := map[string]int{}
	for _, n := range g.Nodes {
		switch n.Kind {
		case dfg.KindRemote:
			if n.Remote.Path == "" {
				t.Errorf("expected file-range shard, got %+v", n.Remote)
			}
			ranges++
			workers[n.Remote.Worker]++
		case dfg.KindSplit:
			splits++
		}
	}
	if ranges != 8 || splits != 0 {
		t.Fatalf("file-range plan: %d ranges, %d splits; want 8, 0", ranges, splits)
	}
	if len(workers) != 2 || workers["http://w1"] != 4 || workers["http://w2"] != 4 {
		t.Fatalf("worker assignment unbalanced: %v", workers)
	}
}

func mustPlan(t *testing.T, workers []string, sharedFS bool, width int) *dfg.Graph {
	t.Helper()
	pool := dist.NewPool(workers...)
	pool.SetSharedFS(sharedFS)
	sess := pash.NewSession(pash.DefaultOptions(width))
	sess.UseWorkers(pool)
	plan, err := sess.CompileExec(`cat in.txt | tr A-Z a-z | grep the`)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range plan.Items {
		if item.Graph != nil {
			return item.Graph
		}
	}
	t.Fatal("no compiled region")
	return nil
}

// TestDistributedEnvPropagation: env-dependent stateless stages (curl's
// PASH_CURL_ROOT offline root) behave identically on workers — the
// transport injects the run's environment snapshot into the wire plan,
// since cached plan templates are run-independent.
func TestDistributedEnvPropagation(t *testing.T) {
	dir := t.TempDir()
	// The offline curl maps http://host/p to $PASH_CURL_ROOT/host/p.
	if err := os.Mkdir(filepath.Join(dir, "host"), 0o755); err != nil {
		t.Fatal(err)
	}
	var urls strings.Builder
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("page%02d.txt", i)
		if err := os.WriteFile(filepath.Join(dir, "host", name), []byte(fmt.Sprintf("content of page %d\n", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&urls, "http://host/%s\n", name)
	}
	if err := os.WriteFile(filepath.Join(dir, "urls.txt"), []byte(urls.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat urls.txt | xargs -n 1 curl -s | tr a-z A-Z`
	run := func(pool *pash.WorkerPool) string {
		sess := pash.NewSession(pash.DefaultOptions(8))
		sess.Dir = dir
		sess.Vars = map[string]string{"PASH_CURL_ROOT": dir}
		if pool != nil {
			sess.UseWorkers(pool)
		}
		var out bytes.Buffer
		code, err := sess.Run(context.Background(), script, strings.NewReader(""), &out, os.Stderr)
		if err != nil || code != 0 {
			t.Fatalf("run (pool=%v): code %d err %v", pool != nil, code, err)
		}
		return out.String()
	}
	local := run(nil)
	if !strings.Contains(local, "CONTENT OF PAGE 63") {
		t.Fatalf("local run did not fetch pages: %q", local)
	}
	for _, sharedFS := range []bool{false, true} {
		pool := startWorkers(t, 2, dir)
		pool.SetSharedFS(sharedFS)
		if got := run(pool); got != local {
			t.Errorf("sharedFS=%v: distributed env-dependent output diverged (%d vs %d bytes)", sharedFS, len(got), len(local))
		}
	}
}
