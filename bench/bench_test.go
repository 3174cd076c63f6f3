package main

import (
	"bytes"
	"context"
	"testing"
)

// These tests run the whole harness on tiny inputs and assert only
// counts and output equality — never a time — so they cover the
// plumbing without adding a flaky gate.

func quickConfig(t *testing.T, trace bool) config {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{root: root, seed: defaultSeed, seconds: 0, width: loadWidth(), quick: true, trace: trace}
}

func rowsByName(rows []row) map[string]row {
	out := map[string]row{}
	for _, r := range rows {
		out[r.Name] = r
	}
	return out
}

func TestQuickRunsEveryWorkload(t *testing.T) {
	cfg := quickConfig(t, false)
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			res, rows, err := runWorkload(context.Background(), cfg, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			// One pass of each side: every leg once, or for the closed
			// loop passRequests requests on each of W connections.
			want := 2 * 2 // two legs, two sides
			switch s.name {
			case "dist-2w":
				want = 2 * 3
			case "serve-mixed":
				want = 2 * cfg.width * s.passRequests
			}
			if res.Attempted != want || res.Failed != 0 || !res.Correct {
				t.Errorf("attempted %d failed %d correct %v, want %d attempted and none failed", res.Attempted, res.Failed, res.Correct, want)
			}
			if res.Reference != "host" && res.Reference != "self" {
				t.Errorf("reference %q", res.Reference)
			}
			got := rowsByName(rows)
			for _, m := range endToEnd {
				r, ok := got[m.name]
				if !ok || r.N == 0 || r.Kind != "measured" || !r.EndToEnd {
					t.Errorf("end-to-end row %s: %+v", m.name, r)
				}
			}
		})
	}
}

func TestQuickTracedRun(t *testing.T) {
	cfg := quickConfig(t, true)
	for _, name := range []string{"loop-control", "stream-agg"} {
		t.Run(name, func(t *testing.T) {
			s, err := findSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			res, rows, err := runWorkload(context.Background(), cfg, s, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			got := rowsByName(rows)
			for _, m := range perLayer {
				if _, ok := got[m.name]; !ok {
					t.Errorf("per-layer row %s missing", m.name)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("the traced run recorded no spans")
			}
			switch name {
			case "loop-control":
				// Two loops of iters regions: the invariant one misses
				// once and then hits, the other misses every time.
				iters := float64(scaled(400, true))
				for row, want := range map[string]float64{
					"pash.regions": 2 * iters, "pash.plan_hits": iters - 1, "pash.plan_misses": iters + 1,
				} {
					if got[row].Median != want {
						t.Errorf("%s = %v, want %v", row, got[row].Median, want)
					}
				}
			case "stream-agg":
				// streamWindows has already checked the count against the
				// input; both legs read the same body.
				if w := got["stream.windows"].Median; w < 4 || int(w)%2 != 0 {
					t.Errorf("stream.windows = %v, want an even count of at least 4", w)
				}
			}
		})
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newCorpus(7).text(1000), newCorpus(7).text(1000), newCorpus(8).text(1000)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different text")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same text")
	}
	if n := bytes.Count(a, []byte{'\n'}); n != 1000 {
		t.Errorf("%d lines, want 1000", n)
	}
	if !bytes.Contains(bytes.ToLower(a), []byte("water")) {
		t.Error("no line mentions water: the stateless scripts would select nothing")
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for k, want := range map[int]float64{1: 2.75, 2: 5.5, 3: 8.25} {
		if got := quantile(data, k); got != want {
			t.Errorf("quartile %d = %v, want %v", k, got, want)
		}
	}
}

func TestWindowOffsets(t *testing.T) {
	line := bytes.Repeat([]byte("x"), 99)
	line = append(line, '\n')
	body := bytes.Repeat(line, 3*streamWindowBytes/100)
	ends := windowOffsets(body)
	if len(ends) != 3 {
		t.Fatalf("%d windows, want 3", len(ends))
	}
	for i, end := range ends[:2] {
		if body[end-1] != '\n' || end-0 < (i+1)*streamWindowBytes {
			t.Errorf("window %d ends at %d: not a line end at or past the size trigger", i, end)
		}
	}
	if ends[2] != len(body) {
		t.Errorf("last window ends at %d, want %d", ends[2], len(body))
	}
}

func TestVerdict(t *testing.T) {
	base := row{Better: "lower", Bound: 0.10, Median: 100, Q1: 99, Q3: 101, Min: 98, Max: 102}
	cases := []struct {
		name string
		b    row
		want string
	}{
		{"same", base, "ok"},
		{"slower beyond the bound", row{Better: "lower", Bound: 0.10, Median: 120, Q1: 119, Q3: 121, Min: 118, Max: 122}, "regressed"},
		{"noisy and overlapping", row{Better: "lower", Bound: 0.10, Median: 105, Q1: 95, Q3: 115, Min: 90, Max: 125}, "unresolved"},
		{"noisy but every run worse", row{Better: "lower", Bound: 0.10, Median: 150, Q1: 140, Q3: 160, Min: 130, Max: 170}, "regressed"},
	}
	for _, c := range cases {
		if got := verdict(base, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := row{Better: "higher", Bound: 0.10, Median: 100, Q1: 99, Q3: 101, Min: 98, Max: 102}
	drop := row{Better: "higher", Bound: 0.10, Median: 80, Q1: 79, Q3: 81, Min: 78, Max: 82}
	if got := verdict(higher, drop); got != "regressed" {
		t.Errorf("throughput drop: %s, want regressed", got)
	}
}
