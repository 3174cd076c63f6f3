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
// Two shard shapes exist, mirroring the split strategies:
//
//   - File ranges: when the split's input is a seekable graph-input file
//     and the worker pool shares the coordinator's filesystem, the split
//     is deleted outright. Each branch becomes a self-sourcing remote
//     node that tells the worker "open Path yourself and process
//     newline-aligned slice i of n" — the coordinator ships no input
//     bytes at all. Branch outputs are contiguous, so a round-robin
//     merge downgrades to a plain cat.
//
//   - Whole streams: a branch that reads one whole partition — a barrier
//     (general) split's consumer chain, the uniq map shape; or a
//     round-robin split's branch that ends in the map of a commutative
//     pure command, `tr | sort`, which reads its replica's interleaved
//     blocks as one stream — becomes a streamed remote node: the
//     coordinator relays the branch's entire input as one stream and
//     receives the branch's entire output as one stream.
//
// Every remote node reads at most one stream and writes one. The
// aggregation tree — its interior nodes, the root fan-in — and the
// splits and merges stay on the coordinator.
//
// A round-robin split's stateless chain that ends at the order-restoring
// merge does not ship: its replicas answer one output chunk per input
// chunk, and relaying that over the wire cost more than running the
// replica on the coordinator. Both shapes preserve the local execution's
// bytes: each branch gets a line-aligned partition of the input, which
// stateless chains and the (map, agg) contract are already
// partition-agnostic over (contiguous for order-sensitive maps, any for
// commutative ones).

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
	// Path/Slice/Of describe the file-range shape: the worker opens
	// Path (resolved against its own working directory — the shared-fs
	// contract) and processes the Slice-th of Of newline-aligned byte
	// ranges. Path == "" means a relayed (streamed) shape.
	Path  string `json:"path,omitempty"`
	Slice int    `json:"slice,omitempty"`
	Of    int    `json:"of,omitempty"`
	// Streamed marks the contiguous-stream shape: the node's one input
	// arrives as one whole stream (chunk frames ended by a zero-length
	// separator on the wire, no per-chunk framing rotation), Stages run
	// over it, and the node's output is one whole stream.
	Streamed bool `json:"streamed,omitempty"`
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

// DecodePlan parses and validates a wire plan. Every plan names its
// stages and its shape: a file range, or the streamed flag. A plan with
// neither — an older coordinator's framed relay, whose "framed" field
// JSON drops — and a plan with no stages — an older coordinator's
// aggregation tree, whose "branches" and "agg" fields JSON drops — are
// refused rather than run as some shape they did not ask for.
func DecodePlan(data []byte) (*RemoteSpec, error) {
	var spec RemoteSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("dfg: bad remote plan: %w", err)
	}
	if len(spec.Stages) == 0 {
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
		if spec.Streamed {
			return nil, fmt.Errorf("dfg: remote plan cannot be both file-range and streamed")
		}
	} else if !spec.Streamed {
		return nil, fmt.Errorf("dfg: remote plan names no shape (neither a file range nor streamed)")
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
	// KeySalt mixes coordinator-side planning state (the registry's
	// generation) into each spec's Key, so a re-registration on the
	// coordinator also invalidates worker-cached plans built from the
	// old registry.
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
// in place: every barrier-split consumer chain and every rr-split branch
// ending at an aggregate (the streamed shape), and — with FileRanges —
// every branch of a split over a seekable graph-input file collapses into
// a KindRemote node. An rr-split chain ending at the merge stays local,
// and so does the structure around the shards: the splits themselves,
// merges and every aggregate. Returns the number of remote nodes
// created.
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

// ships is distribution's join rule: a stateless command, the map of a
// pure command — a stateless invocation over its chunk by the (map, agg)
// contract — or a fused chain.
func ships(_, n *Node) bool {
	switch n.Kind {
	case KindFused, KindMap:
		return true
	case KindCommand:
		return n.Class == annot.Stateless
	}
	return false
}

// remoteNode is the KindRemote node that replaces a shipped chain.
func remoteNode(spec *RemoteSpec) *Node {
	return &Node{Kind: KindRemote, Name: "pash-remote", Class: annot.Stateless, StdinInput: -1, Remote: spec}
}

// distributeChains rewrites the consumer chains of a split that relays
// its input into remote nodes, one per branch; the split and the
// downstream collector stay on the coordinator. The branch's collector decides
// whether it ships; a shipped chain is always the streamed shape:
//
//   - A barrier split's chain ending at any collector ships streamed:
//     the branch processes one whole contiguous partition — the
//     uniq/head map shape — so the wire carries one stream each way.
//   - A round-robin split's branch ending at an aggregate — framed
//     stateless stages feeding a commutative map, `tr | sort` — also
//     ships streamed, as one shard: the map reads its whole input
//     anyway, and the stateless prefix computes the same bytes over the
//     stream as chunk by chunk.
//   - A round-robin split's chain ending at the order-restoring merge
//     stays on the coordinator as framed replicas.
func distributeChains(g *Graph, split *Node, opts DistOptions) []*Node {
	var remotes []*Node
	for _, e := range snapshotEdges(split.Out) {
		chain, last := chainAt(e, ships)
		if len(chain) == 0 || last.To == nil {
			continue
		}
		stages := chainStages(chain)
		if !opts.shippableStages(stages) {
			continue
		}
		to, rr := last.To.Kind, split.Split == RoundRobinSplit
		if !(to == KindAgg || !rr && (to == KindCat || to == KindMerge)) {
			continue
		}
		r := remoteNode(&RemoteSpec{Stages: stages, Streamed: true})
		remotes = append(remotes, g.collapse(chain, e, last, r))
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
		chain      []*Node
		head, last *Edge
		stages     []FusedStage
	}
	branches := make([]branch, 0, len(outs))
	for _, e := range outs {
		chain, last := chainAt(e, ships)
		if len(chain) == 0 || last.To == nil {
			return nil
		}
		switch last.To.Kind {
		case KindCat, KindMerge, KindAgg:
		default:
			return nil
		}
		stages := chainStages(chain)
		if !opts.shippableStages(stages) {
			return nil
		}
		branches = append(branches, branch{chain, e, last, stages})
	}
	n := len(branches)
	remotes := make([]*Node, 0, n)
	for i, br := range branches {
		r := remoteNode(&RemoteSpec{Stages: br.stages, Path: path, Slice: i, Of: n})
		g.collapse(br.chain, nil, br.last, r)
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
