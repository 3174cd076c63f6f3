package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only from this directory's files, around the calls into each layer;
// spans inside the program are a later change (ROADMAP item 4). Start
// and End are nanoseconds since the tracer was made; Parent is the
// index of the causing span, -1 for a root; spans of one leg share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced runs are taken.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known (synthesized from
// runtime.Result.NodeTimes, or from a request's client-side timestamps).
func (t *tracer) add(name, job string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Job: job})
	return len(t.spans) - 1
}

// request records the client's view of one HTTP operation: the whole
// request, and under it send-to-first-byte and first-to-last-byte.
func (t *tracer) request(workload string, op opSample) {
	if t == nil || op.first.IsZero() {
		return
	}
	job := workload + "/" + op.leg
	root := t.add("client.request", job, -1, op.start, op.wall)
	t.add("client.send_to_first_byte", job, root, op.start, op.first.Sub(op.start))
	t.add("client.first_to_last_byte", job, root, op.first, op.wall-op.first.Sub(op.start))
}

// attributed is the time of one job that some span accounts for: the
// summed self times of its spans, which for properly nested spans is
// the length of the union of its root spans.
func (t *tracer) attributed(job string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots []span
	for _, s := range t.spans {
		if s.Job == job && s.Parent == -1 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	var total, end int64
	for _, s := range roots {
		if s.End <= end {
			continue
		}
		total += s.End - max(s.Start, end)
		end = s.End
	}
	return time.Duration(total)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
