package core

import (
	"fmt"
	"strings"
)

// Dot renders the plan as one Graphviz document: each compiled region
// becomes a cluster showing its optimized dataflow graph (fused stages,
// split strategy, aggregation-tree shape), and verbatim items appear as
// dashed boxes in plan order. Feed it to `dot -Tsvg` to see what the
// planner actually built — the debugging view behind `pash -graph`.
func (p *Plan) Dot() string {
	var b strings.Builder
	b.WriteString("digraph pash {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontname=\"monospace\", fontsize=10];\n")
	b.WriteString("  compound=true;\n")
	for i, item := range p.Items {
		if item.Graph == nil {
			label := strings.TrimSpace(item.Verbatim)
			if item.Background {
				label += " &"
			}
			fmt.Fprintf(&b, "  v%d [label=%q, shape=box, style=dashed];\n", i, label)
			continue
		}
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n", i)
		label := fmt.Sprintf("region %d", i)
		if item.Graph.Width.Asked > 0 {
			label += ": " + item.Graph.Width.String()
		}
		fmt.Fprintf(&b, "    label=%q;\n    color=gray60;\n", label)
		item.Graph.WriteDot(&b, "    ", fmt.Sprintf("r%d_", i))
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}
