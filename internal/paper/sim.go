package paper

import (
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// This file projects a dataflow graph's execution onto a multicore
// machine. This reproduction's host may have too few cores for
// data-parallel speedups to show, so the missing hardware is simulated:
// the profiling executor (core.Interp.Measure) measures every node's
// active work (wall time minus pipe-blocked time) during a correct run,
// and makespan replays that work on a fluid model of a P-core machine.
//
// The model captures what the paper's evaluation hinges on:
//
//   - streaming nodes (grep, tr, cat, ...) progress as input arrives and
//     overlap fully with producers and consumers (task parallelism);
//   - blocking nodes (sort, tac, the general split, aggregators over
//     whole inputs) consume streams but emit only when done — PaSh's
//     laziness and merge bottlenecks;
//   - ordered multi-input consumers (cat, sort -m, the aggregators)
//     consume their inputs in order: with lazy edges, a later input's
//     producer stalls until the earlier inputs drain (Fig. 6a); eager
//     buffering removes that stall (Fig. 6d);
//   - cores are shared fairly among runnable nodes (work-conserving,
//     at most one core per node), like the kernel scheduler.

// SimCores is the simulated machine width: the paper's testbed had 64
// physical cores.
const SimCores = 64

// nodeOverhead models the process spawn and pipe setup cost added to
// every node's work (what bends the paper's curves down at high widths).
const nodeOverhead = 200 * time.Microsecond

// Project is the projected wall time of a measuring run's regions on a
// simulated machine of the given width.
func Project(profiles []core.RegionProfile, cores int) time.Duration {
	var total time.Duration
	for _, p := range profiles {
		total += makespan(p.Graph, p.Times, cores, nodeOverhead)
	}
	return total
}

// nodeState is the fluid state of one node.
type nodeState struct {
	node     *dfg.Node
	work     float64 // seconds of CPU required
	done     float64 // seconds completed
	blocking bool
	// inputs in consumption order; each refers to a producer index or
	// -1 for graph inputs (always available).
	inputs []int
	// outFrac is the fraction of output made available to consumers.
	outFrac float64
	// consumed is this node's progress through its ordered inputs,
	// measured in "input units" (one unit per input edge).
	consumed float64
}

// blockingCommands emit no output before consuming all input. The
// count stage's map (pash-sort-count) sorts before it prints, as sort
// does; its aggregate merges, as sort -m does, and streams. The
// count-and-rank stage, its map and its aggregate each print only once
// they have counted everything.
var blockingCommands = map[string]bool{
	"sort": true, "tac": true, "wc": true, "diff": true,
	"pash-split": true, "pash-agg-tac": true, "pash-agg-wc": true,
	"pash-agg-sum": true, "pash-sort-count": true,
	"pash-count-rank": true, "pash-count": true, "pash-agg-count-rank": true,
}

// isBlocking classifies a node for the fluid model. sort -m streams (it
// is the k-way merge), as do the boundary-fixing aggregators.
func isBlocking(n *dfg.Node) bool {
	if n.Kind == dfg.KindSplit && n.Split == dfg.RoundRobinSplit {
		// The streaming round-robin split emits blocks as they arrive;
		// only the barrier split consumes its whole input first.
		return false
	}
	if n.Name == "sort" {
		for _, a := range n.Args {
			if a.InputIdx < 0 && a.Text == "-m" {
				return false
			}
		}
		return true
	}
	return blockingCommands[n.Name]
}

// makespan simulates the graph's execution with the measured per-node
// active times, each plus overhead, and returns the projected wall-clock
// time on a machine of the given width.
func makespan(g *dfg.Graph, times []runtime.NodeTime, cores int, overhead time.Duration) time.Duration {
	cores = max(cores, 1)
	workOf := map[int]float64{}
	for _, nt := range times {
		workOf[nt.ID] = nt.Active.Seconds()
	}

	// Index nodes and wire fluid dependencies.
	idx := map[*dfg.Node]int{}
	for i, n := range g.Nodes {
		idx[n] = i
	}
	states := make([]*nodeState, len(g.Nodes))
	var total float64
	for i, n := range g.Nodes {
		st := &nodeState{
			node:     n,
			work:     workOf[n.ID] + overhead.Seconds(),
			blocking: isBlocking(n),
		}
		for _, e := range n.In {
			if e.From == nil {
				st.inputs = append(st.inputs, -1)
			} else {
				st.inputs = append(st.inputs, idx[e.From])
			}
		}
		states[i] = st
		total += st.work
	}
	if total <= 0 {
		return 0
	}
	step := total / 4000

	elapsed := 0.0
	for iter := 0; iter < 4_000_000; iter++ {
		// Refresh input availability from current producer progress.
		for _, st := range states {
			st.consumed = st.available(states)
		}
		// Which nodes can run this step?
		runnable := make([]int, 0, len(states))
		for i, st := range states {
			if st.done >= st.work {
				continue
			}
			hasData := st.consumed > st.progress()+1e-12 || st.allInputsComplete(states)
			if hasData && st.producerMayRun(states) {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			// Stall guard: force the least-finished node to complete.
			progressed := false
			for _, st := range states {
				if st.done < st.work {
					st.done = st.work
					st.refreshOut()
					progressed = true
					break
				}
			}
			if !progressed {
				break
			}
			continue
		}
		share := float64(cores) / float64(len(runnable))
		if share > 1 {
			share = 1
		}
		for _, i := range runnable {
			st := states[i]
			room := st.consumed - st.progress()
			if st.allInputsComplete(states) {
				room = 1
			}
			if room < 0 {
				room = 0
			}
			d := share * step
			// Nodes cannot outrun their input stream; the small slack
			// term prevents zeno-stepping at the availability frontier.
			if maxD := room*st.work + share*step*0.01; d > maxD {
				d = maxD
			}
			st.done += d
			if st.done > st.work {
				st.done = st.work
			}
			st.refreshOut()
		}
		elapsed += step
		allDone := true
		for _, st := range states {
			if st.done < st.work {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}
	return time.Duration(elapsed * float64(time.Second))
}

// progress is the node's completed fraction.
func (st *nodeState) progress() float64 {
	if st.work <= 0 {
		return 1
	}
	return st.done / st.work
}

func (st *nodeState) refreshOut() {
	if st.blocking {
		if st.done >= st.work {
			st.outFrac = 1
		} else {
			st.outFrac = 0
		}
		return
	}
	st.outFrac = st.progress()
}

// available returns the fraction of this node's total input that has
// arrived, honoring ordered consumption: input k contributes only after
// inputs 0..k-1 are fully available.
func (st *nodeState) available(states []*nodeState) float64 {
	if len(st.inputs) == 0 {
		return 1
	}
	per := 1.0 / float64(len(st.inputs))
	avail := 0.0
	for _, p := range st.inputs {
		var f float64
		if p < 0 {
			f = 1
		} else {
			f = states[p].outFrac
		}
		avail += per * f
		if f < 1 {
			break // ordered consumption: later inputs wait
		}
	}
	return avail
}

// allInputsComplete reports whether every producer has finished.
func (st *nodeState) allInputsComplete(states []*nodeState) bool {
	for _, p := range st.inputs {
		if p >= 0 && states[p].outFrac < 1 {
			return false
		}
	}
	return true
}

// producerMayRun models lazy edges: a producer stalls when a non-eager
// output edge feeds a consumer that has not yet reached that edge in its
// ordered consumption (the Fig. 6a serialization). Eager edges buffer,
// so their producers never stall.
func (st *nodeState) producerMayRun(states []*nodeState) bool {
	n := st.node
	for _, e := range n.Out {
		if e.To == nil || e.Eager {
			continue
		}
		consumer := states[indexOf(states, e.To)]
		// Find this edge's position in the consumer's ordered inputs.
		pos := -1
		for i, ie := range e.To.In {
			if ie == e {
				pos = i
				break
			}
		}
		if pos <= 0 {
			continue // first input: consumer reads it from the start
		}
		// Later input: its producer can fill one pipe buffer (the slack
		// term) and then blocks until earlier inputs drain.
		per := 1.0 / float64(len(e.To.In))
		if consumer.consumed+0.02 < per*float64(pos) {
			return false
		}
	}
	return true
}

func indexOf(states []*nodeState, n *dfg.Node) int {
	for i, st := range states {
		if st.node == n {
			return i
		}
	}
	return 0
}
