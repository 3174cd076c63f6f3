package dfg

import "fmt"

// Validate checks structural invariants of the graph:
//
//   - every edge's From/To matches the endpoints' port lists
//   - every node's input placeholders reference existing inputs, and each
//     input is consumed exactly once (stdin or placeholder)
//   - the graph is acyclic
//   - boundary edges carry bindings
//   - a file-range split reads a graph-input file
func (g *Graph) Validate() error {
	nodeSet := map[*Node]bool{}
	for _, n := range g.Nodes {
		nodeSet[n] = true
	}
	edgeSet := map[*Edge]bool{}
	for _, e := range g.Edges {
		edgeSet[e] = true
	}
	for _, e := range g.Edges {
		if e.From != nil {
			if !nodeSet[e.From] {
				return fmt.Errorf("dfg: edge %s references removed producer", e)
			}
			if !containsEdge(e.From.Out, e) {
				return fmt.Errorf("dfg: edge %s missing from producer's out list", e)
			}
		}
		if e.To != nil {
			if !nodeSet[e.To] {
				return fmt.Errorf("dfg: edge %s references removed consumer", e)
			}
			if !containsEdge(e.To.In, e) {
				return fmt.Errorf("dfg: edge %s missing from consumer's in list", e)
			}
		}
	}
	for _, n := range g.Nodes {
		for _, e := range n.In {
			if !edgeSet[e] {
				return fmt.Errorf("dfg: node %s lists removed edge", n)
			}
			if e.To != n {
				return fmt.Errorf("dfg: node %s input edge points elsewhere", n)
			}
		}
		for _, e := range n.Out {
			if !edgeSet[e] {
				return fmt.Errorf("dfg: node %s lists removed out edge", n)
			}
			if e.From != n {
				return fmt.Errorf("dfg: node %s output edge points elsewhere", n)
			}
		}
		if n.StdinInput >= len(n.In) {
			return fmt.Errorf("dfg: node %s stdin index %d out of range (%d inputs)", n, n.StdinInput, len(n.In))
		}
		// Each input must be consumed exactly once: via stdin or an arg
		// placeholder. Split/cat/agg nodes manage their own ports.
		used := make([]int, len(n.In))
		if n.StdinInput >= 0 {
			used[n.StdinInput]++
		}
		for _, a := range n.Args {
			if a.InputIdx >= 0 {
				if a.InputIdx >= len(n.In) {
					return fmt.Errorf("dfg: node %s placeholder <in%d> out of range", n, a.InputIdx)
				}
				used[a.InputIdx]++
			}
		}
		for i, c := range used {
			if c != 1 {
				return fmt.Errorf("dfg: node %s input %d consumed %d times", n, i, c)
			}
		}
		if n.Kind == KindSplit && n.Split == FileRangeSplit &&
			(len(n.In) != 1 || n.In[0].From != nil || n.In[0].Source.Kind != BindFile) {
			return fmt.Errorf("dfg: file-range split %s must read one graph-input file", n)
		}
		if err := validateFused(n); err != nil {
			return err
		}
		if err := validateRemote(n); err != nil {
			return err
		}
	}
	if err := g.validateWindow(); err != nil {
		return err
	}
	return g.checkAcyclic()
}

// validateFused checks the KindFused invariants: only fused nodes carry
// stages; a fused node is a straight pipe segment (one stdin input, one
// output) with at least two collapsed stages, and every stage is a
// plain literal invocation.
func validateFused(n *Node) error {
	if n.Kind != KindFused {
		if len(n.Stages) > 0 {
			return fmt.Errorf("dfg: non-fused node %s carries %d stages", n, len(n.Stages))
		}
		return nil
	}
	if len(n.Stages) < 2 {
		return fmt.Errorf("dfg: fused node %s has %d stages (need >= 2)", n, len(n.Stages))
	}
	if len(n.In) != 1 || len(n.Out) != 1 {
		return fmt.Errorf("dfg: fused node %s must have exactly one input and one output", n)
	}
	if n.StdinInput != 0 {
		return fmt.Errorf("dfg: fused node %s must consume its input as stdin", n)
	}
	for _, st := range n.Stages {
		if st.Name == "" {
			return fmt.Errorf("dfg: fused node %s has a stage with no command name", n)
		}
	}
	return nil
}

// validateRemote checks the KindRemote invariants: only remote nodes
// carry a RemoteSpec; a remote node has exactly one output and either
// one stdin input (the framed chunk-relay and linear streamed shapes),
// none at all (the self-sourcing file-range shape, which must name a
// path and slice), or one placeholder-consumed input per branch (the
// streamed aggregation-subtree shape).
func validateRemote(n *Node) error {
	if n.Kind != KindRemote {
		if n.Remote != nil {
			return fmt.Errorf("dfg: non-remote node %s carries a remote spec", n)
		}
		return nil
	}
	if n.Remote == nil || (len(n.Remote.Stages) == 0 && n.Remote.Agg == nil) {
		return fmt.Errorf("dfg: remote node %s has no shipped stages", n)
	}
	if len(n.Out) != 1 {
		return fmt.Errorf("dfg: remote node %s must have exactly one output", n)
	}
	if n.Remote.Path != "" {
		if len(n.In) != 0 {
			return fmt.Errorf("dfg: file-range remote node %s must self-source", n)
		}
		if n.Remote.Of < 1 || n.Remote.Slice < 0 || n.Remote.Slice >= n.Remote.Of {
			return fmt.Errorf("dfg: remote node %s range %d/%d invalid", n, n.Remote.Slice, n.Remote.Of)
		}
		return nil
	}
	if n.Remote.Agg != nil {
		if !n.Remote.Streamed {
			return fmt.Errorf("dfg: remote node %s aggregation requires the streamed shape", n)
		}
		if len(n.In) != len(n.Remote.Branches) {
			return fmt.Errorf("dfg: streamed tree node %s has %d inputs for %d branches",
				n, len(n.In), len(n.Remote.Branches))
		}
		if n.StdinInput >= 0 {
			return fmt.Errorf("dfg: streamed tree node %s must consume inputs as operands", n)
		}
		return nil
	}
	if len(n.In) != 1 || n.StdinInput != 0 {
		return fmt.Errorf("dfg: relayed remote node %s must consume one stdin input", n)
	}
	return nil
}

func containsEdge(list []*Edge, e *Edge) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

func (g *Graph) checkAcyclic() error {
	_, err := g.TopoOrder()
	return err
}

// TopoOrder returns the nodes in a topological order (Kahn's algorithm:
// producers before their consumers, ties in node order), or an error
// when the graph has a cycle.
func (g *Graph) TopoOrder() ([]*Node, error) {
	indeg := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, e := range n.In {
			if e.From != nil {
				indeg[n]++
			}
		}
	}
	order := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			order = append(order, n)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range order[i].Out {
			if e.To == nil {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph has a cycle (%d of %d nodes reachable)", len(order), len(g.Nodes))
	}
	return order, nil
}
