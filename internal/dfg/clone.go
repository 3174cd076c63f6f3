package dfg

// Clone deep-copies the graph: fresh Node and Edge values with the same
// IDs, argv templates, bindings, and wiring. It exists for the plan
// cache — a planned+optimized graph is stored once as an immutable
// template and cloned per execution, so instantiation costs one
// allocation pass instead of a full compile+optimize. The copy is
// allocation-lean: node/edge structs come from two bulk slabs and all
// argv templates share one backing array, because this is the per-region
// control-plane cost a cache hit pays.
func (g *Graph) Clone() *Graph {
	// The window spec is immutable once attached (like AggSpec), so
	// clones share it.
	ng := &Graph{nextID: g.nextID, Window: g.Window, Width: g.Width}
	// IDs are unique across nodes and edges, so one ID-indexed table
	// maps originals to copies without map overhead on the hot path.
	nodes := make([]*Node, g.nextID)
	edges := make([]*Edge, g.nextID)

	totalArgs := 0
	for _, n := range g.Nodes {
		totalArgs += len(n.Args)
	}
	argSlab := make([]Arg, 0, totalArgs)
	nodeSlab := make([]Node, len(g.Nodes))
	edgeSlab := make([]Edge, len(g.Edges))

	ng.Nodes = make([]*Node, 0, len(g.Nodes))
	for i, n := range g.Nodes {
		nn := &nodeSlab[i]
		*nn = Node{
			ID:         n.ID,
			Kind:       n.Kind,
			Name:       n.Name,
			Class:      n.Class,
			StdinInput: n.StdinInput,
			noSplit:    n.noSplit,
			Split:      n.Split,
			Framed:     n.Framed,
		}
		if len(n.Args) > 0 {
			start := len(argSlab)
			argSlab = append(argSlab, n.Args...)
			nn.Args = argSlab[start : start+len(n.Args) : start+len(n.Args)]
		}
		// AggSpec and FusedStage contents are immutable once planning
		// finishes (the transformations themselves alias AggSpec across
		// replicas; the executor only reads both), so clones share them.
		nn.Agg = n.Agg
		nn.Stages = n.Stages
		nn.Remote = n.Remote
		nodes[n.ID] = nn
		ng.Nodes = append(ng.Nodes, nn)
	}

	ng.Edges = make([]*Edge, 0, len(g.Edges))
	for i, e := range g.Edges {
		ne := &edgeSlab[i]
		*ne = Edge{ID: e.ID, Source: e.Source, Sink: e.Sink, Eager: e.Eager, EagerBytes: e.EagerBytes}
		if e.From != nil {
			ne.From = nodes[e.From.ID]
		}
		if e.To != nil {
			ne.To = nodes[e.To.ID]
		}
		edges[e.ID] = ne
		ng.Edges = append(ng.Edges, ne)
	}

	portSlab := make([]*Edge, 0, 2*len(g.Edges))
	for _, n := range g.Nodes {
		nn := nodes[n.ID]
		if len(n.In) > 0 {
			start := len(portSlab)
			for _, e := range n.In {
				if e != nil {
					portSlab = append(portSlab, edges[e.ID])
				} else {
					portSlab = append(portSlab, nil)
				}
			}
			nn.In = portSlab[start:len(portSlab):len(portSlab)]
		}
		if len(n.Out) > 0 {
			start := len(portSlab)
			for _, e := range n.Out {
				portSlab = append(portSlab, edges[e.ID])
			}
			nn.Out = portSlab[start:len(portSlab):len(portSlab)]
		}
	}
	return ng
}
