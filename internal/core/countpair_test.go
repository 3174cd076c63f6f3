package core

import (
	"testing"

	"repro/internal/commands"
)

// TestCountPairRule: at widths 1 and 2 the count-pair rule turns the wf
// script's sort | uniq -c, and every builtin pair whose sort order is
// total, into the count stage — one node at width 1, maps and one
// summing aggregate at width 2, and no uniq left. It leaves every other
// form as it was: a sort with -s under a key, -u, -m, -o or a flag its
// parser refuses, a uniq with any argv but -c, and either name shadowed
// by a user command. An emission plan never has the stage.
func TestCountPairRule(t *testing.T) {
	// counts reports the count stage's nodes and the nodes still named
	// uniq or uniq's aggregate.
	counts := func(p *Plan) (stage, uniqs int) {
		t.Helper()
		for _, item := range p.Items {
			if item.Graph == nil {
				continue
			}
			for _, n := range item.Graph.Nodes {
				switch n.Name {
				case "pash-sort-count", "pash-agg-sort-count":
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
			c := NewCompiler(DefaultOptions(width))
			c.Cmds.Register(name, func(*commands.Context) error { return nil })
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
