package dfg

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// WidthReason names what decided a region's width.
type WidthReason int

// Width reasons, in the order the planner consults them.
const (
	// WidthAsked: the caller's width taken as is — the paper's exact
	// presets, where Options.Width is the width.
	WidthAsked WidthReason = iota
	// WidthInput: sized from the bytes the planner could state before the
	// region ran (file operands it could stat, a sized stdin).
	WidthInput
	// WidthHistory: sized from the region's measured wall time.
	WidthHistory
	// WidthUnknown: nothing known, so assumed large: the asked width.
	WidthUnknown
	// WidthBudget: the job's replica budget (JobLimits.MaxProcs) is what
	// bound it.
	WidthBudget
	// WidthGranted: the shared scheduler had fewer tokens to spare than
	// the planner wanted.
	WidthGranted
	NumWidthReasons
)

var widthReasonNames = [NumWidthReasons]string{"asked", "input", "history", "unknown", "budget", "granted"}

func (r WidthReason) String() string { return widthReasonNames[r] }

// WidthPlan is the planner's width decision for one region: what the
// caller asked for, what the region runs at, and why. It rides the graph
// (Graph.Width) so the plan key, `pash -graph` and `pash -stats` all read
// the same decision.
type WidthPlan struct {
	Asked   int
	Planned int
	Reason  WidthReason
	// Measure is what the reason measured: input bytes (WidthInput), the
	// smoothed wall in nanoseconds (WidthHistory), the width wanted before
	// the grant (WidthGranted). Kept as a number so recording a decision
	// formats nothing.
	Measure int64
}

// String renders the decision as `width 1 of 2 (input 4.0 KiB)`.
func (w WidthPlan) String() string {
	detail := w.Reason.String()
	switch w.Reason {
	case WidthInput:
		detail += " " + formatBytes(w.Measure)
	case WidthHistory:
		detail += " " + time.Duration(w.Measure).Round(time.Microsecond).String()
	case WidthGranted:
		detail = fmt.Sprintf("granted %d of %d", w.Planned, w.Measure)
	}
	return fmt.Sprintf("width %d of %d (%s)", w.Planned, w.Asked, detail)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// WidthTally counts width decisions by reason and keeps each reason's
// latest decision as its example.
type WidthTally struct {
	N    [NumWidthReasons]int64
	Last [NumWidthReasons]WidthPlan
}

// Note records one decision.
func (t *WidthTally) Note(w WidthPlan) {
	t.N[w.Reason]++
	t.Last[w.Reason] = w
}

// Add folds another tally into this one.
func (t *WidthTally) Add(o WidthTally) {
	for r, n := range o.N {
		if n > 0 {
			t.N[r] += n
			t.Last[r] = o.Last[r]
		}
	}
}

// String lists the reasons seen, each with its count and latest decision:
// `400× width 1 of 2 (input 4.0 KiB), 1× width 2 of 2 (unknown)`.
func (t WidthTally) String() string {
	var parts []string
	for r, n := range t.N {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d× %s", n, t.Last[r]))
		}
	}
	return strings.Join(parts, ", ")
}

// MarshalJSON renders the counts by reason name: {"input": 400, "unknown": 1}.
func (t WidthTally) MarshalJSON() ([]byte, error) {
	counts := map[string]int64{}
	for r, n := range t.N {
		if n > 0 {
			counts[widthReasonNames[r]] = n
		}
	}
	return json.Marshal(counts)
}
