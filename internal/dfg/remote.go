package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/annot"
)

// This file implements the distributed data plane's planning side:
// partitioning an optimized graph into coordinator-resident structure
// (splits, merges, aggregation trees) and worker-shippable subgraphs
// (linear chains of stateless stages), each collapsed into a single
// KindRemote node carrying a serializable RemoteSpec.
//
// Three shard shapes exist, mirroring the split strategies:
//
//   - Framed relays: a round-robin split's framed consumer chain becomes
//     a remote node fed by the split's chunk stream. The coordinator
//     ships each 64 KiB newline-aligned chunk to the worker and receives
//     exactly one output chunk per input chunk, so the downstream
//     pash-rr-merge restores order exactly as it does locally.
//
//   - File ranges: when the split's input is a seekable graph-input file
//     and the worker pool shares the coordinator's filesystem, the split
//     is deleted outright. Each branch becomes a self-sourcing remote
//     node that tells the worker "open Path yourself and process
//     newline-aligned slice i of n" — the coordinator ships no input
//     bytes at all. Branch outputs are contiguous, so a round-robin
//     merge downgrades to a plain cat.
//
//   - Whole streams: a branch whose output is not one frame per input
//     frame — a barrier (general) split's consumer chain, the uniq map
//     shape, where each branch processes one contiguous partition; or a
//     round-robin split's branch that ends in the map of a commutative
//     pure command, `tr | sort`, which reads its replica's interleaved
//     blocks as one stream — becomes a streamed remote node: the
//     coordinator relays the branch's entire input as one stream (no
//     per-chunk framing rotation) and receives the branch's entire
//     output as one stream. A follow-up pass then absorbs interior
//     aggregation-tree nodes whose every operand is such a streamed
//     branch into a single multi-input streamed remote (Branches + Agg),
//     so a fan-in group's maps AND its combining aggregate all run on
//     one worker; the coordinator keeps only the split, the root
//     fan-in, and the merge.
//
// All shapes preserve the local execution's bytes: framed relays keep
// the rotation the merge inverts; file ranges and whole streams hand
// each branch a line-aligned partition of the input, which stateless
// chains and the (map, agg) contract are already partition-agnostic
// over (contiguous for order-sensitive maps, any for commutative ones).

// RemoteSpec describes the work one KindRemote node ships to a worker:
// a linear chain of stateless stages plus, for the file-range shape,
// the self-sourced input slice. The struct is the wire plan format —
// EncodePlan/DecodePlan round-trip it as JSON — and is immutable once
// planning finishes, so graph clones share it like AggSpec.
type RemoteSpec struct {
	// Worker names the assigned pool member (its URL). Assignment
	// happens at planning time so the plan cache key, extended with the
	// pool fingerprint, pins plans to a membership epoch.
	Worker string `json:"worker,omitempty"`
	// Stages is the shipped chain in pipeline order; every stage is a
	// plain literal invocation reading the previous stage's stdout.
	Stages []FusedStage `json:"stages"`
	// Framed marks the chunk-relay shape: the worker must emit exactly
	// one output frame per input frame (empty frames included).
	Framed bool `json:"framed,omitempty"`
	// Path/Slice/Of describe the file-range shape: the worker opens
	// Path (resolved against its own working directory — the shared-fs
	// contract) and processes the Slice-th of Of newline-aligned byte
	// ranges. Path == "" means the chunk-relay shape.
	Path  string `json:"path,omitempty"`
	Slice int    `json:"slice,omitempty"`
	Of    int    `json:"of,omitempty"`
	// Streamed marks the contiguous-stream shape: each input edge
	// arrives as one whole stream (chunk frames ended by a zero-length
	// separator on the wire, no per-chunk framing rotation) and the
	// node's output is one whole stream. A linear streamed node runs
	// Stages over its single input; a tree node (Agg != nil) runs
	// Branches[i] over input i and combines the branch outputs — in
	// input order — through the Agg stage.
	Streamed bool `json:"streamed,omitempty"`
	// Branches holds the per-input stage chains of a streamed
	// aggregation subtree; len(Branches) equals the node's input count.
	// An empty branch chain passes its input through unchanged.
	Branches [][]FusedStage `json:"branches,omitempty"`
	// Agg is the aggregate stage combining the branch outputs as
	// ordered operand streams (the KindAgg shape). Its Args are the
	// literal aggregator arguments; the operand streams append after
	// them in input order, exactly as a local KindAgg node renders its
	// placeholders.
	Agg *FusedStage `json:"agg,omitempty"`
	// Key is the coordinator's fingerprint of this spec (worker and env
	// excluded): the worker-side plan-cache key. Empty disables worker
	// caching for the node.
	Key string `json:"key,omitempty"`
	// Env is the command environment the stages run under. It is NEVER
	// set by planning — cached plan templates must stay run-independent
	// — and is injected per request by the transport (internal/dist)
	// from the run's environment snapshot, so env-dependent stateless
	// stages (curl's PASH_CURL_ROOT) behave identically on a worker.
	Env map[string]string `json:"env,omitempty"`
}

// EncodePlan serializes a remote spec for the wire.
func EncodePlan(spec *RemoteSpec) ([]byte, error) { return json.Marshal(spec) }

// DecodePlan parses and validates a wire plan.
func DecodePlan(data []byte) (*RemoteSpec, error) {
	var spec RemoteSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("dfg: bad remote plan: %w", err)
	}
	if len(spec.Stages) == 0 && spec.Agg == nil {
		return nil, fmt.Errorf("dfg: remote plan has no stages")
	}
	for _, st := range spec.Stages {
		if st.Name == "" {
			return nil, fmt.Errorf("dfg: remote plan stage with empty name")
		}
	}
	if spec.Path != "" {
		if spec.Of < 1 || spec.Slice < 0 || spec.Slice >= spec.Of {
			return nil, fmt.Errorf("dfg: remote plan range %d/%d invalid", spec.Slice, spec.Of)
		}
		if spec.Framed || spec.Streamed {
			return nil, fmt.Errorf("dfg: remote plan cannot be both file-range and relayed")
		}
	}
	if spec.Framed && spec.Streamed {
		return nil, fmt.Errorf("dfg: remote plan cannot be both framed and streamed")
	}
	if spec.Agg != nil {
		if !spec.Streamed {
			return nil, fmt.Errorf("dfg: remote plan aggregation requires the streamed shape")
		}
		if len(spec.Stages) != 0 {
			return nil, fmt.Errorf("dfg: streamed tree plan carries both stages and branches")
		}
		if len(spec.Branches) == 0 {
			return nil, fmt.Errorf("dfg: streamed tree plan has no branches")
		}
		if spec.Agg.Name == "" {
			return nil, fmt.Errorf("dfg: streamed tree plan aggregate has no name")
		}
		for _, br := range spec.Branches {
			for _, st := range br {
				if st.Name == "" {
					return nil, fmt.Errorf("dfg: remote plan stage with empty name")
				}
			}
		}
	} else if len(spec.Branches) != 0 {
		return nil, fmt.Errorf("dfg: remote plan branches require an aggregate")
	}
	return &spec, nil
}

// DistOptions configures the partitioning pass.
type DistOptions struct {
	// Workers lists the pool members in dispatch order; remote nodes are
	// assigned round-robin. Empty disables the pass.
	Workers []string
	// FileRanges enables the file-range shape (requires the pool to
	// share the coordinator's filesystem).
	FileRanges bool
	// Shippable reports whether a command name may execute on a worker
	// (user-registered custom commands exist only in the coordinator's
	// registry). Nil means every name ships.
	Shippable func(name string) bool
	// KeySalt mixes coordinator-side planning state (registry
	// generations) into each spec's Key, so a re-registration on the
	// coordinator also invalidates worker-cached plans built from the
	// old registries.
	KeySalt string
}

// shippableStages reports whether every stage of a candidate chain may
// leave the coordinator.
func (o DistOptions) shippableStages(stages []FusedStage) bool {
	if o.Shippable == nil {
		return true
	}
	for _, st := range stages {
		if !o.Shippable(st.Name) {
			return false
		}
	}
	return true
}

// Distribute partitions an optimized graph across the worker pool,
// in place: every framed rr-split consumer chain, every barrier-split
// consumer chain and every rr-split branch ending at an aggregate (the
// streamed shape), and — with FileRanges — every branch of a split over
// a seekable graph-input file collapses into a KindRemote node.
// Interior aggregation-tree nodes whose operands all became streamed
// remotes behind a barrier split are then absorbed into multi-input
// streamed remotes, one per fan-in group. Structure the coordinator
// must keep — the splits themselves, merges, the root fan-in — stays
// local. Returns the number of remote nodes created.
func Distribute(g *Graph, opts DistOptions) int {
	if len(opts.Workers) == 0 {
		return 0
	}
	var remotes []*Node
	for _, split := range snapshot(g.Nodes) {
		if split.Kind != KindSplit || len(split.In) != 1 || len(split.Out) < 2 {
			continue
		}
		in := split.In[0]
		fileInput := in.From == nil && in.Source.Kind == BindFile
		if opts.FileRanges && fileInput {
			remotes = append(remotes, distributeFileRanges(g, split, opts)...)
			continue
		}
		remotes = append(remotes, distributeChains(g, split, opts)...)
	}
	remotes = groupAggSubtrees(g, opts, remotes)
	for i, n := range remotes {
		n.Remote.Worker = opts.Workers[i%len(opts.Workers)]
		n.Remote.Key = fingerprintSpec(n.Remote, opts.KeySalt)
	}
	return len(remotes)
}

// fingerprintSpec computes a spec's worker plan-cache key: a hash over
// the canonical spec encoding with the per-dispatch fields (worker
// assignment, environment, the key itself) cleared, salted with the
// coordinator's registry generations. Two nodes shipping identical
// work share a key — that is the point: a worker that already holds
// the decoded plan and its kernel chain skips both on the next
// dispatch, whoever it comes from.
func fingerprintSpec(spec *RemoteSpec, salt string) string {
	c := *spec
	c.Worker, c.Env, c.Key = "", nil, ""
	b, err := json.Marshal(&c)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// remotableChain walks the linear chain of shippable nodes starting at
// the consumer of e: single stdin input, single output, literal argv,
// stateless semantics (KindCommand with a stateless class, KindMap, or
// KindFused). It returns the chain's nodes and the edge leaving the
// last one; an empty chain means the consumer is not shippable.
func remotableChain(e *Edge) ([]*Node, *Edge) {
	var chain []*Node
	for {
		n := e.To
		if n == nil || !remotableNode(n) {
			return chain, e
		}
		chain = append(chain, n)
		e = n.Out[0]
	}
}

func remotableNode(n *Node) bool {
	if len(n.In) != 1 || len(n.Out) != 1 || n.StdinInput != 0 {
		return false
	}
	switch n.Kind {
	case KindFused:
		return true
	case KindCommand:
	case KindMap:
		// Map instances of pure commands are stateless invocations over
		// their chunk by the (map, agg) contract.
	default:
		return false
	}
	if n.Kind == KindCommand && n.Class != annot.Stateless {
		return false
	}
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			return false
		}
	}
	return true
}

// chainStages flattens a remotable chain into wire stages.
func chainStages(chain []*Node) []FusedStage {
	var out []FusedStage
	for _, n := range chain {
		if n.Kind == KindFused {
			out = append(out, n.Stages...)
			continue
		}
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = a.Text
		}
		out = append(out, FusedStage{Name: n.Name, Args: args})
	}
	return out
}

// collapseRemote replaces the chain nodes between head edge e and the
// chain's outgoing edge with one KindRemote node carrying spec.
func collapseRemote(g *Graph, chain []*Node, in, out *Edge, spec *RemoteSpec) *Node {
	r := g.AddNode(NewNode(KindRemote, "pash-remote", nil, annot.Stateless))
	r.Remote = spec
	r.Framed = spec.Framed
	if in != nil {
		in.To = r
		r.In = []*Edge{in}
		r.StdinInput = 0
	}
	out.From = r
	r.Out = []*Edge{out}
	for i, n := range chain {
		if i > 0 {
			// The edge feeding this node is interior to the chain.
			g.removeEdge(n.In[0])
		}
		n.In, n.Out = nil, nil
		g.removeNode(n)
	}
	return r
}

// distributeChains rewrites the consumer chains of a split that relays
// its input into remote nodes, one per branch; the split and the
// downstream collector stay on the coordinator (an aggregate may be
// absorbed later by groupAggSubtrees). The branch's collector decides the
// shape:
//
//   - A round-robin split's framed chain ending, still framed, at the
//     order-restoring merge ships framed: one output frame per input
//     frame is the invariant the merge inverts.
//   - A barrier split's chain ending at any collector ships streamed:
//     the branch processes one whole contiguous partition — the
//     uniq/head map shape — so the wire carries one stream each way.
//   - A round-robin split's branch ending at an aggregate — framed
//     stateless stages feeding a commutative map, `tr | sort` — also
//     ships streamed, as one shard: the map reads its whole input
//     anyway, and the stateless prefix computes the same bytes over the
//     stream as chunk by chunk.
func distributeChains(g *Graph, split *Node, opts DistOptions) []*Node {
	var remotes []*Node
	for _, e := range snapshotEdges(split.Out) {
		chain, last := remotableChain(e)
		if len(chain) == 0 || last.To == nil {
			continue
		}
		stages := chainStages(chain)
		if !opts.shippableStages(stages) {
			continue
		}
		rr := split.Split == RoundRobinSplit
		framed := rr
		for _, n := range chain {
			framed = framed && n.Framed
		}
		spec := &RemoteSpec{Stages: stages}
		switch to := last.To.Kind; {
		case framed && to == KindMerge:
			spec.Framed = true
		case to == KindAgg, !rr && (to == KindCat || to == KindMerge):
			spec.Streamed = true
		default:
			continue
		}
		remotes = append(remotes, collapseRemote(g, chain, e, last, spec))
	}
	return remotes
}

// distributeFileRanges rewrites a split over a seekable graph-input file
// into self-sourcing file-range remote nodes, one per branch, deleting
// the split. Every branch must be shippable and end at a shared
// multi-input collector (cat, merge, or an aggregate); a round-robin
// merge downgrades to a plain cat because ranges are contiguous.
func distributeFileRanges(g *Graph, split *Node, opts DistOptions) []*Node {
	path := split.In[0].Source.Path
	outs := snapshotEdges(split.Out)
	type branch struct {
		chain []*Node
		head  *Edge
		last  *Edge
	}
	branches := make([]branch, 0, len(outs))
	for _, e := range outs {
		chain, last := remotableChain(e)
		if len(chain) == 0 || last.To == nil {
			return nil
		}
		switch last.To.Kind {
		case KindCat, KindMerge, KindAgg:
		default:
			return nil
		}
		if !opts.shippableStages(chainStages(chain)) {
			return nil
		}
		branches = append(branches, branch{chain: chain, head: e, last: last})
	}
	n := len(branches)
	remotes := make([]*Node, 0, n)
	for i, br := range branches {
		spec := &RemoteSpec{
			Stages: chainStages(br.chain),
			Path:   path, Slice: i, Of: n,
		}
		r := collapseRemote(g, br.chain, nil, br.last, spec)
		// The split's feed edge into this branch is gone with the split.
		br.head.To = nil
		g.removeEdge(br.head)
		remotes = append(remotes, r)
		if br.last.To.Kind == KindMerge {
			// Contiguous ranges concatenate in order; no rotation to undo.
			br.last.To.Kind = KindCat
			br.last.To.Name = "cat"
		}
	}
	// Remove the split and its input edge: workers self-source.
	in := split.In[0]
	in.To = nil
	g.removeEdge(in)
	split.In, split.Out = nil, nil
	g.removeNode(split)
	return remotes
}

// groupAggSubtrees absorbs interior aggregation-tree nodes into their
// operand remotes: a KindAgg node whose every input is a single-input
// streamed remote chain behind a barrier split and whose output feeds
// another KindAgg (it is interior, not the root fan-in) merges with its
// operands into one multi-input streamed remote — the whole fan-in
// group (maps plus combining aggregate) runs on one worker, and the
// wire carries one result stream per group instead of one per map. The
// root aggregate always stays on the coordinator. Returns the remote
// list with absorbed nodes replaced by their groups.
//
// Known limit: branches behind a round-robin split (a commutative
// consumer's maps, `tr | sort`) are never grouped, so at widths where
// the tree has interior nodes (>= 8) those interior aggregates run on
// the coordinator. Grouping them needs a wire shape that carries a
// shard's inputs interleaved; today's carries them one after another.
func groupAggSubtrees(g *Graph, opts DistOptions, remotes []*Node) []*Node {
	absorbed := map[*Node]bool{}
	var groups []*Node
	for _, a := range snapshot(g.Nodes) {
		if a.Kind != KindAgg || len(a.In) < 2 || len(a.Out) != 1 {
			continue
		}
		parent := a.Out[0].To
		if parent == nil || parent.Kind != KindAgg {
			continue
		}
		if opts.Shippable != nil && !opts.Shippable(a.Name) {
			continue
		}
		// Every operand must be a leaf streamed chain, and the agg's
		// argument template must be literals plus one placeholder per
		// operand (the shape buildAggTree constructs).
		eligible := true
		var aggLits []string
		places := 0
		for _, arg := range a.Args {
			if arg.InputIdx >= 0 {
				places++
				continue
			}
			if places > 0 {
				eligible = false // placeholders must trail the literals
				break
			}
			aggLits = append(aggLits, arg.Text)
		}
		if !eligible || places != len(a.In) || a.StdinInput >= 0 {
			continue
		}
		for _, e := range a.In {
			c := e.From
			if c == nil || c.Kind != KindRemote || c.Remote == nil ||
				!c.Remote.Streamed || c.Remote.Agg != nil || len(c.In) != 1 {
				eligible = false
				break
			}
			// The wire carries a tree's inputs one after another, the way
			// a barrier split emits them. A round-robin split fills its
			// outputs in lockstep: it would block on the second while the
			// first waits for an EOF that only the end of input brings
			// (and buffering the others until then would serialise the
			// maps that the single-input shards run concurrently).
			if src := c.In[0].From; src != nil && src.Split == RoundRobinSplit {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		spec := &RemoteSpec{
			Streamed: true,
			Agg:      &FusedStage{Name: a.Name, Args: aggLits},
		}
		r := g.AddNode(NewNode(KindRemote, "pash-remote", nil, annot.Stateless))
		r.Remote = spec
		for i, e := range snapshotEdges(a.In) {
			child := e.From
			feed := child.In[0]
			feed.To = r
			r.In = append(r.In, feed)
			r.Args = append(r.Args, InArg(i))
			spec.Branches = append(spec.Branches, child.Remote.Stages)
			e.From, e.To = nil, nil
			g.removeEdge(e)
			child.In, child.Out = nil, nil
			g.removeNode(child)
			absorbed[child] = true
		}
		out := a.Out[0]
		out.From = r
		r.Out = []*Edge{out}
		a.In, a.Out = nil, nil
		g.removeNode(a)
		groups = append(groups, r)
	}
	if len(groups) == 0 {
		return remotes
	}
	kept := remotes[:0]
	for _, n := range remotes {
		if !absorbed[n] {
			kept = append(kept, n)
		}
	}
	return append(kept, groups...)
}
