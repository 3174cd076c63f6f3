package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/commands"
)

// TestCountPairRule: at widths 1 and 2 the count-pair rule turns every
// builtin pair whose sort order is total into the count stage, and the
// wf script's sort | uniq -c | sort -rn into the count-and-rank stage —
// one node at width 1, maps and one summing aggregate at width 2, and no
// uniq left. It leaves every other
// form as it was: a sort with -s under a key, -u, -m, -o or a flag its
// parser refuses, a uniq with any argv but -c, and either name shadowed
// by a user command. An emission plan never has the stage.
func TestCountPairRule(t *testing.T) {
	// counts reports the count stage's nodes, or the count-and-rank
	// stage's behind the wf script, and the nodes still named uniq or
	// uniq's aggregate.
	counts := func(p *Plan) (stage, uniqs int) {
		t.Helper()
		for _, item := range p.Items {
			if item.Graph == nil {
				continue
			}
			for _, n := range item.Graph.Nodes {
				switch n.Name {
				case "pash-sort-count", "pash-agg-sort-count", "pash-count-rank", "pash-count", "pash-agg-count-rank":
					stage++
				case "uniq", "pash-agg-uniq":
					uniqs++
				}
			}
		}
		return stage, uniqs
	}
	fired := []string{
		`cat f | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`,
		`sort -rn f | uniq -c`,
		`cat f | sort -t, -k2 | uniq -c | head -n 5`,
		`sort -f -k2 a b | uniq -c > out`,
		`cat f | sort -s | uniq -c`,
	}
	refused := []string{
		`cat f | sort -s -k1 | uniq -c`,
		`cat f | sort -u | uniq -c`,
		`cat f | sort | uniq -c -i`,
		`cat f | sort | uniq -c -f1`,
		`cat f | sort | uniq`,
		`cat f | sort | uniq -c -`,
		`cat f | sort -R | uniq -c`,
		`sort -m a b | uniq -c`,
		`sort -o out f | uniq -c`,
		`cat f | sort > g | uniq -c`,
	}
	for _, width := range []int{1, 2} {
		c := NewCompiler(DefaultOptions(width))
		for _, script := range fired {
			p, err := c.PlanExec(script)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]int{1: 1, 2: 3}[width] // the stage, or two maps and the aggregate
			if stage, uniqs := counts(p); stage != want || uniqs != 0 {
				t.Errorf("width %d: %s plans %d count-stage nodes and %d uniq nodes, want %d and 0\n%s",
					width, script, stage, uniqs, want, p.Items[len(p.Items)-1].Graph.Dump())
			}
			if p, err = c.Plan(script); err != nil {
				t.Fatal(err)
			}
			if stage, uniqs := counts(p); stage != 0 || uniqs == 0 {
				t.Errorf("width %d: the emission plan of %s has %d count-stage nodes and %d uniq nodes, want 0 and some",
					width, script, stage, uniqs)
			}
		}
		for _, script := range refused {
			p, err := c.PlanExec(script)
			if err != nil {
				t.Fatal(err)
			}
			if stage, _ := counts(p); stage != 0 {
				t.Errorf("width %d: %s plans the count stage\n%s", width, script, p.Items[len(p.Items)-1].Graph.Dump())
			}
		}
		for _, name := range []string{"sort", "uniq"} {
			// A user implementation under the builtin's record: sort stays
			// P, so only the user mark keeps the pair from the stage.
			c := NewCompiler(DefaultOptions(width))
			e, _ := c.Cmds.Entry(name)
			e.Run, e.User = func(*commands.Context) error { return nil }, true
			c.Cmds.Set(name, e)
			p, err := c.PlanExec(fired[0])
			if err != nil {
				t.Fatal(err)
			}
			if stage, _ := counts(p); stage != 0 {
				t.Errorf("width %d: with %s shadowed, %s plans the count stage", width, name, fired[0])
			}
		}
	}
	// The rule runs ahead of the transformations in Optimize too.
	g, err := NewCompiler(DefaultOptions(2)).CompilePipeline([]Stage{{Name: "sort"}, {Name: "uniq", Args: []string{"-c"}}}, RegionIO{})
	if err != nil {
		t.Fatal(err)
	}
	NewCompiler(DefaultOptions(2)).Optimize(g)
	names := map[string]int{}
	for _, n := range g.Nodes {
		names[n.Name]++
	}
	if names["pash-sort-count"] != 2 || names["pash-agg-sort-count"] != 1 || names["uniq"] != 0 {
		t.Errorf("Optimize plans %v\n%s", names, g.Dump())
	}
}

// TestCountRankRule: at widths 1 and 2 a count pair whose one consumer
// is a builtin `sort -n` or `sort -rn`, in any spelling, becomes the
// count-and-rank stage over the first sort's inputs: one pash-count-rank
// node at width 1, maps and one aggregate at width 2, with the rank's
// flag, and `[first K]` on the node that head -n K reads. Every other
// last sort keeps the count stage and a sort, a uniq other than -c keeps
// all three commands, and so does a user command shadowing sort. An
// emission plan never has the stage.
func TestCountRankRule(t *testing.T) {
	fired := []struct {
		script string
		flag   string
		limit  int
	}{
		{`cut -d ' ' -f1 f | sort | uniq -c | sort -rn | head -n 5`, "-rn", 5},
		{`cat f | sort | uniq -c | sort -n`, "-n", 0},
		{`cat f | sort -f | uniq -c | sort -nr | head -n 1`, "-rn", 1},
		{`cat f | sort -k2 | uniq -c | sort -r -n`, "-rn", 0},
		{`sort a b | uniq -c | sort -rn > out`, "-rn", 0},
	}
	refused := []string{
		`cat f | sort | uniq -c | sort -rns`,
		`cat f | sort | uniq -c | sort -rnu`,
		`cat f | sort | uniq -c | sort -k1,1nr`,
		`cat f | sort | uniq -c | sort -t' ' -rn`,
		`cat f | sort | uniq -c | sort -r`,
		`cat f | sort | uniq -c | sort -fn`,
		`cat f | sort | uniq -c | sort -rn - g`,
		`cat f | sort | uniq -c | sort -rn -o out`,
		`cat f | sort | uniq -c | sort -m -rn`,
	}
	names := func(p *Plan) map[string]int {
		got := map[string]int{}
		for _, item := range p.Items {
			if item.Graph != nil {
				for _, n := range item.Graph.Nodes {
					got[n.Name]++
				}
			}
		}
		return got
	}
	dump := func(p *Plan) string { return p.Items[len(p.Items)-1].Graph.Dump() }
	for _, width := range []int{1, 2} {
		c := NewCompiler(DefaultOptions(width))
		for _, f := range fired {
			p, err := c.PlanExec(f.script)
			if err != nil {
				t.Fatal(err)
			}
			got := names(p)
			ranked := "pash-count-rank"
			if width == 2 {
				ranked = "pash-agg-count-rank"
				if got["pash-count"] != 2 || got[ranked] != 1 {
					t.Errorf("width 2: %s plans %v, want two pash-count maps and one %s\n%s", f.script, got, ranked, dump(p))
				}
			}
			if got[ranked] != 1 || got["sort"]+got["uniq"]+got["pash-sort-count"] != 0 {
				t.Fatalf("width %d: %s plans %v, want one %s and no sort, uniq or count stage\n%s", width, f.script, got, ranked, dump(p))
			}
			for _, n := range p.Items[len(p.Items)-1].Graph.Nodes {
				if n.Name != ranked {
					continue
				}
				if n.Args[0].Text != f.flag || n.Limit != f.limit {
					t.Errorf("width %d: %s plans %s %s with limit %d, want %s and %d", width, f.script, ranked, n.Args[0].Text, n.Limit, f.flag, f.limit)
				}
				if label := fmt.Sprintf("[first %d]", f.limit); f.limit > 0 && !strings.Contains(p.Dot(), label) {
					t.Errorf("width %d: the graph of %s has no %s\n%s", width, f.script, label, p.Dot())
				}
			}
			if p, err = c.Plan(f.script); err != nil {
				t.Fatal(err)
			}
			if got := names(p); got["sort"] == 0 || got["pash-count-rank"]+got["pash-agg-count-rank"]+got["pash-count"] != 0 {
				t.Errorf("width %d: the emission plan of %s plans %v, want its sorts and no stage", width, f.script, got)
			}
		}
		if p, _ := c.PlanExec(fired[0].script); width == 1 && len(p.Items[0].Graph.Nodes) != 3 {
			t.Errorf("width 1: %s plans %d nodes, want cut, the stage and head\n%s", fired[0].script, len(p.Items[0].Graph.Nodes), dump(p))
		}
		for _, script := range refused {
			p, err := c.PlanExec(script)
			if err != nil {
				t.Fatal(err)
			}
			if got := names(p); got["pash-sort-count"]+got["pash-agg-sort-count"] == 0 || got["sort"] == 0 ||
				got["pash-count-rank"]+got["pash-agg-count-rank"]+got["pash-count"] != 0 {
				t.Errorf("width %d: %s plans %v, want the count stage and a sort\n%s", width, script, got, dump(p))
			}
		}
		p, err := c.PlanExec(`cat f | sort | uniq -c -i | sort -rn`)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(p); got["uniq"]+got["pash-agg-uniq"] == 0 || got["pash-count-rank"]+got["pash-sort-count"] != 0 {
			t.Errorf("width %d: sort | uniq -c -i | sort -rn plans %v, want its commands", width, got)
		}
		// A user sort keeps all three commands, and its own plan.
		shadow := NewCompiler(DefaultOptions(width))
		e, _ := shadow.Cmds.Entry("sort")
		e.Run, e.User = func(*commands.Context) error { return nil }, true
		shadow.Cmds.Set("sort", e)
		if p, err = shadow.PlanExec(`sort | uniq -c | sort -rn`); err != nil {
			t.Fatal(err)
		}
		if got := names(p); width == 1 && (got["sort"] != 2 || got["uniq"] != 1 || len(got) != 2) {
			t.Errorf("width 1: with sort shadowed, sort | uniq -c | sort -rn plans %v, want three nodes\n%s", got, dump(p))
		}
		if got := names(p); got["pash-count-rank"]+got["pash-agg-count-rank"]+got["pash-sort-count"] != 0 {
			t.Errorf("width %d: with sort shadowed, sort | uniq -c | sort -rn plans %v", width, got)
		}
	}
}
