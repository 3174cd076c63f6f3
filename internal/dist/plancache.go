package dist

import (
	"container/list"
	"sync"

	"repro/internal/dfg"
	"repro/internal/runtime"
)

// planCacheCap bounds the worker's plan cache. A coordinator session
// dispatches a handful of distinct specs per plan (one per shard
// shape), so even a worker shared by many concurrent sessions stays
// well under this; the bound exists so a coordinator cycling through
// unique keys cannot grow worker memory without limit.
const planCacheCap = 64

// planEntry is one cached plan: the decoded env-free spec plus its
// validated StageChain template, never nil, whose kernel pool persists
// across requests.
type planEntry struct {
	key   string
	gen   uint64
	spec  *dfg.RemoteSpec
	chain *runtime.StageChain
}

// planCache is the worker-side plan-keyed LRU. Entries are keyed by
// the coordinator's plan fingerprint and pinned to the registry
// generation they were validated against: a registry mutation (new
// custom command, changed semantics) bumps the generation and every
// stale entry misses — and is evicted — on its next lookup, so a
// cached chain can never run against commands it was not validated
// for.
type planCache struct {
	mu sync.Mutex
	ll *list.List
	m  map[string]*list.Element
}

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the entry for key validated at generation gen, or nil.
// A generation mismatch evicts the stale entry.
func (c *planCache) get(key string, gen uint64) *planEntry {
	if key == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	ent := el.Value.(*planEntry)
	if ent.gen != gen {
		c.ll.Remove(el)
		delete(c.m, key)
		return nil
	}
	c.ll.MoveToFront(el)
	return ent
}

// put inserts (or refreshes) an entry, evicting the least recently
// used one past capacity.
func (c *planCache) put(key string, gen uint64, spec *dfg.RemoteSpec, chain *runtime.StageChain) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value = &planEntry{key: key, gen: gen, spec: spec, chain: chain}
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, gen: gen, spec: spec, chain: chain})
	for c.ll.Len() > planCacheCap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*planEntry).key)
	}
}

// len reports the current entry count (for tests and metrics).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
