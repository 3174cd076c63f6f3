package runtime

import "sync/atomic"

// Traffic is a live, lock-free meter of data-plane movement: payload
// bytes and discrete blocks enqueued into the graph's internal pipes. It
// is the only traffic counter: Job.Stats reads it on a running job, the
// /metrics rows of a streaming job that never finishes, and what
// pash-serve charges a tenant. Attach one via Config.Traffic; executions
// sharing a meter accumulate into it.
type Traffic struct {
	bytes  atomic.Int64
	chunks atomic.Int64
}

// note records n payload bytes enqueued in the given number of new
// blocks: one for a block of its own, none for bytes coalesced into the
// queue's tail block.
func (t *Traffic) note(n int, blocks int64) {
	if t == nil {
		return
	}
	t.bytes.Add(int64(n))
	t.chunks.Add(blocks)
}

// Moved reports the lifetime totals: payload bytes and blocks enqueued.
func (t *Traffic) Moved() (bytes, chunks int64) {
	if t == nil {
		return 0, 0
	}
	return t.bytes.Load(), t.chunks.Load()
}
