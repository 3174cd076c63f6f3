package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
)

// TestSortHeadPlansLineLimits: the planner writes head -n 5's count onto
// what feeds it. At width 4 every sort map and the sort -m that merges
// them carry limit 5 and no other node carries one; at width 8 the
// aggregation tree's interior merges carry it too; at width 1 the one
// sort does; an emitted script carries none. Behind uniq -c and behind
// the count stage, no map gets one; behind head -n -2 nothing does.
func TestSortHeadPlansLineLimits(t *testing.T) {
	const script = `cat f | tr A-Z a-z | sort -rn | head -n 5`
	limits := func(p *Plan) (sorts, others int) {
		t.Helper()
		if len(p.Items) != 1 || p.Items[0].Graph == nil {
			t.Fatalf("not one lifted region: %+v", p.Items)
		}
		for _, n := range p.Items[0].Graph.Nodes {
			switch {
			case n.Name == "sort" && n.Limit == 5:
				sorts++
			case n.Name == "sort":
				t.Errorf("%s (%v) carries limit %d, want 5\n%s", n.Name, n.Kind, n.Limit, p.Items[0].Graph.Dump())
			case n.Limit != 0:
				others++
			}
		}
		return sorts, others
	}
	for _, tc := range []struct {
		width, sorts int
	}{
		{1, 1},
		{4, 4 + 1},     // four maps and the sort -m
		{8, 8 + 2 + 1}, // eight maps, two interior merges and the root
	} {
		p, err := NewCompiler(DefaultOptions(tc.width)).PlanExec(script)
		if err != nil {
			t.Fatal(err)
		}
		if sorts, others := limits(p); sorts != tc.sorts || others != 0 {
			t.Errorf("width %d: %d sort nodes limited to 5 and %d other nodes limited, want %d and 0\n%s",
				tc.width, sorts, others, tc.sorts, p.Items[0].Graph.Dump())
		}
	}
	// uniq -c's first five output lines can need more than five input
	// lines, so its aggregate keeps the limit to itself; so does the
	// count stage's aggregate, whose first five lines can sum counts
	// from anywhere in its maps' output.
	for src, agg := range map[string]string{
		`cat f | tr A-Z a-z | uniq -c | head -n 5`: "pash-agg-uniq",
		`cat f | sort | uniq -c | head -n 5`:       "pash-agg-sort-count",
	} {
		p, err := NewCompiler(DefaultOptions(4)).PlanExec(src)
		if err != nil {
			t.Fatal(err)
		}
		limited := 0
		for _, n := range p.Items[0].Graph.Nodes {
			if n.Kind == dfg.KindAgg && n.Name == agg {
				limited++
				continue
			}
			if n.Limit != 0 {
				t.Errorf("%s: %s (%v) carries limit %d, want 0\n%s", src, n.Name, n.Kind, n.Limit, p.Items[0].Graph.Dump())
			}
		}
		if limited != 1 {
			t.Errorf("%s: %d %s nodes, want 1\n%s", src, limited, agg, p.Items[0].Graph.Dump())
		}
	}
	p, err := NewCompiler(DefaultOptions(4)).Plan(script)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Items[0].Graph.Nodes {
		if n.Limit != 0 {
			t.Errorf("emission plan: %s carries limit %d, want none", n.Name, n.Limit)
		}
	}
	// head -n -2 prints all but the last two lines: it takes no count, so
	// nothing is limited and the one head runs whole.
	if p, err = NewCompiler(DefaultOptions(4)).PlanExec(`cat f | sort -rn | head -n -2`); err != nil {
		t.Fatal(err)
	}
	heads := 0
	for _, n := range p.Items[0].Graph.Nodes {
		if n.Limit != 0 {
			t.Errorf("sort | head -n -2: %s (%v) carries limit %d, want none\n%s", n.Name, n.Kind, n.Limit, p.Items[0].Graph.Dump())
		}
		if strings.Contains(n.Name, "head") {
			heads++
		}
	}
	if heads != 1 {
		t.Errorf("sort | head -n -2 plans %d head nodes, want 1\n%s", heads, p.Items[0].Graph.Dump())
	}
}

// TestSortLimitLeavesOutputFileWhole: sort -o writes its file, not its
// standard output, so the limit head puts on sort's output is no limit
// on the file: every line reaches it at every width.
func TestSortLimitLeavesOutputFileWhole(t *testing.T) {
	dir := t.TempDir()
	text := corpus(20000)
	if err := os.WriteFile(filepath.Join(dir, "in"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := runInterp(t, NewCompiler(DefaultOptions(1)), `sort in`, "", dir)
	for _, width := range []int{1, 4} {
		p, err := NewCompiler(DefaultOptions(width)).PlanExec(`cat in | sort -o out | head -n 1`)
		if err != nil {
			t.Fatal(err)
		}
		limited := false
		for _, n := range p.Items[0].Graph.Nodes {
			limited = limited || n.Name == "sort" && n.Limit == 1
		}
		if !limited {
			t.Fatalf("width %d: sort -o carries no limit, so this test shows nothing\n%s", width, p.Items[0].Graph.Dump())
		}
		runInterp(t, NewCompiler(DefaultOptions(width)), `cat in | sort -o out | head -n 1`, "", dir)
		got, err := os.ReadFile(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("width %d: sort -o wrote %d lines, want %d", width, strings.Count(string(got), "\n"), strings.Count(want, "\n"))
		}
	}
}
