package dfg

import (
	"fmt"
	"strings"
)

// Dot renders the graph in Graphviz dot syntax as a standalone digraph.
// Fused nodes list their collapsed stages line by line, aggregation
// trees appear as the KindAgg fan-in they are, and boundary bindings
// (stdin, stdout, files) render as small external terminals — the
// debugging view behind Plan.Dot and `pash -graph`.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph pash {\n  rankdir=LR;\n  node [fontname=\"monospace\", fontsize=10];\n")
	if g.Width.Asked > 0 {
		fmt.Fprintf(&b, "  label=%q;\n", g.Width.String())
	}
	g.WriteDot(&b, "  ", "")
	b.WriteString("}\n")
	return b.String()
}

// WriteDot writes the graph's dot statements (nodes and edges, no
// surrounding digraph) with the given line indent and node-ID prefix,
// so multiple graphs can share one document as clusters.
func (g *Graph) WriteDot(b *strings.Builder, indent, prefix string) {
	id := func(n *Node) string { return fmt.Sprintf("%sn%d", prefix, n.ID) }
	if g.Window != nil {
		fmt.Fprintf(b, "%s%swin [label=%q, shape=note, style=filled, fillcolor=\"#fcf3cf\"];\n",
			indent, prefix, g.Window.String())
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(b, "%s%s [label=%q, shape=%s%s];\n",
			indent, id(n), nodeDotLabel(n), nodeDotShape(n), nodeDotStyle(n))
	}
	ext := 0
	for _, e := range g.Edges {
		attrs := ""
		if e.Eager {
			attrs = " [style=bold, color=\"#1f78b4\", label=\"eager\"]"
		}
		from, to := "", ""
		if e.From != nil {
			from = id(e.From)
		} else {
			from = fmt.Sprintf("%sx%d", prefix, ext)
			ext++
			fmt.Fprintf(b, "%s%s [label=%q, shape=plaintext, fontcolor=gray40];\n",
				indent, from, bindingDotLabel(e.Source, "stdin"))
		}
		if e.To != nil {
			to = id(e.To)
		} else {
			to = fmt.Sprintf("%sx%d", prefix, ext)
			ext++
			fmt.Fprintf(b, "%s%s [label=%q, shape=plaintext, fontcolor=gray40];\n",
				indent, to, bindingDotLabel(e.Sink, "stdout"))
		}
		fmt.Fprintf(b, "%s%s -> %s%s;\n", indent, from, to, attrs)
	}
}

// nodeDotLabel renders a node's display label: the command with its
// literal argv, a fused node's stage list, or the primitive's name.
func nodeDotLabel(n *Node) string {
	if n.Kind == KindFused {
		parts := make([]string, 0, len(n.Stages)+1)
		parts = append(parts, "fused")
		for _, st := range n.Stages {
			parts = append(parts, strings.TrimSpace(st.Name+" "+strings.Join(st.Args, " ")))
		}
		label := strings.Join(parts, "\n")
		if n.Framed {
			label += "\n[framed]"
		}
		return label
	}
	if n.Kind == KindRemote {
		parts := make([]string, 0, len(n.Remote.Stages)+2)
		parts = append(parts, "remote @ "+n.Remote.Worker)
		for _, st := range n.Remote.Stages {
			parts = append(parts, strings.TrimSpace(st.Name+" "+strings.Join(st.Args, " ")))
		}
		for i, br := range n.Remote.Branches {
			names := make([]string, len(br))
			for j, st := range br {
				names[j] = st.Name
			}
			parts = append(parts, fmt.Sprintf("branch %d: %s", i, strings.Join(names, "|")))
		}
		if a := n.Remote.Agg; a != nil {
			parts = append(parts, strings.TrimSpace("agg: "+a.Name+" "+strings.Join(a.Args, " ")))
		}
		switch {
		case n.Remote.Path != "":
			parts = append(parts, fmt.Sprintf("[range %d/%d of %s]", n.Remote.Slice, n.Remote.Of, n.Remote.Path))
		case n.Remote.Framed:
			parts = append(parts, "[framed]")
		case n.Remote.Streamed:
			parts = append(parts, "[stream]")
		}
		return strings.Join(parts, "\n")
	}
	var args []string
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			args = append(args, fmt.Sprintf("<in%d>", a.InputIdx))
		} else {
			args = append(args, a.Text)
		}
	}
	label := strings.TrimSpace(n.Name + " " + strings.Join(args, " "))
	switch {
	case n.Kind == KindSplit && n.Split == RoundRobinSplit:
		label += "\n[rr]"
	case n.Framed:
		label += "\n[framed]"
	}
	return label
}

func nodeDotShape(n *Node) string {
	switch n.Kind {
	case KindSplit:
		return "invtrapezium"
	case KindCat, KindMerge:
		return "trapezium"
	case KindAgg:
		return "hexagon"
	case KindFused, KindRemote:
		return "box3d"
	case KindRelay:
		return "cds"
	}
	return "box"
}

func nodeDotStyle(n *Node) string {
	switch n.Kind {
	case KindAgg:
		return ", style=filled, fillcolor=\"#fdebd0\""
	case KindFused:
		return ", style=filled, fillcolor=\"#d6eaf8\""
	case KindRemote:
		return ", style=filled, fillcolor=\"#d5f5e3\""
	case KindSplit, KindCat, KindMerge:
		return ", style=filled, fillcolor=\"#eeeeee\""
	}
	return ""
}

func bindingDotLabel(b Binding, def string) string {
	switch b.Kind {
	case BindFile:
		if b.Append {
			return ">> " + b.Path
		}
		return b.Path
	case BindStdin:
		return "stdin"
	case BindStdout:
		return "stdout"
	case BindLiteral:
		return "heredoc"
	case BindNone:
		return "discard"
	}
	return def
}
