package repro

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"
)

// The count gate. Some rows of a traced benchmark run are counts of what
// the planner and the data plane did — regions, plan-cache verdicts, bytes
// and chunks through the pipes, nodes planned, stream windows, the workers'
// plan-cache verdicts — and repeat exactly on any host. ledger/counts.json
// holds them for `go run -C bench . -quick -trace 1`; a change that moves
// one changed a plan or added a copy, and says so by updating the file:
//
//	go run -C bench . -quick -trace 1 -out /tmp/quick.json
//	go test -run TestLedgerCounts -ledger.result /tmp/quick.json .          # check
//	go test -run TestLedgerCounts -ledger.result /tmp/quick.json -ledger.update .
var (
	ledgerResult = flag.String("ledger.result", "", "result `file` of `go run -C bench . -quick -trace 1 -out file` to check against ledger/counts.json")
	ledgerUpdate = flag.Bool("ledger.update", false, "rewrite ledger/counts.json from -ledger.result instead of checking it")
)

const ledgerCountsFile = "ledger/counts.json"

// ledgerCountRows are the rows that are counts, not times.
var ledgerCountRows = []string{
	"pash.regions", "pash.plan_hits", "pash.plan_misses", "pash.bytes_moved", "pash.chunks_moved",
	"dfg.nodes_after", "stream.windows", "dist.worker_plan_hits", "dist.worker_plan_misses",
}

func TestLedgerCounts(t *testing.T) {
	if *ledgerResult == "" {
		t.Skip("no -ledger.result: run `go run -C bench . -quick -trace 1 -out FILE` and pass it")
	}
	raw, err := os.ReadFile(*ledgerResult)
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Quick, Traced bool
		Rows          []struct {
			Workload, Name string
			Median         float64
		}
	}
	if err := json.Unmarshal(raw, &result); err != nil {
		t.Fatal(err)
	}
	if !result.Quick || !result.Traced {
		t.Fatalf("%s is not a -quick -trace 1 run", *ledgerResult)
	}
	got := map[string]map[string]float64{} // workload -> row -> count
	for _, r := range result.Rows {
		if slices.Contains(ledgerCountRows, r.Name) {
			if got[r.Workload] == nil {
				got[r.Workload] = map[string]float64{}
			}
			got[r.Workload][r.Name] = r.Median
		}
	}
	if *ledgerUpdate {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerCountsFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err = os.ReadFile(ledgerCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for workload, rows := range want {
		for name, n := range rows {
			if g, ok := got[workload][name]; !ok || g != n {
				t.Errorf("%s %s = %v (present: %v), %s says %v", workload, name, g, ok, ledgerCountsFile, n)
			}
		}
	}
	for workload, rows := range got {
		for name := range rows {
			if _, ok := want[workload][name]; !ok {
				t.Errorf("%s %s is not in %s", workload, name, ledgerCountsFile)
			}
		}
	}
}
