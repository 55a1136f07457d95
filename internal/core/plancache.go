package core

import (
	"container/list"
	"sync"

	"prima/internal/access/atom"
)

// planCache is an LRU of prepared statements keyed by statement shape (see
// mql.Statement) plus the schema version and the recursion bound that shaped
// the plan, so the wire server and ExecuteScript prepare each statement
// shape once and bind its literals at open. DDL bumps the schema version, so
// stale plans miss naturally and age out of the LRU. Entries are immutable
// after preparation and shared freely: all per-execution state (bound
// parameters, root streaming, assembly, predicate scratch) lives in bound
// plans, cursors or pooled scratch, never in the entry.
type planCache struct {
	mu     sync.Mutex
	ll     *list.List // front = most recently used
	byKey  map[planKey]*list.Element
	hits   uint64
	misses uint64
}

// planCacheShapes bounds the cache. A design's clients send tens of
// statement shapes; the bound only guards against a client that sends
// unboundedly many.
const planCacheShapes = 512

type planKey struct {
	version uint64
	depth   int
	shape   string
}

type planEntry struct {
	key  planKey
	prep *prepared
}

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), byKey: map[planKey]*list.Element{}}
}

// get returns the statement prepared for the shape, or nil when there is
// none or its structural literals differ from params. Misses are not
// counted here — only putMiss records one, when a statement was actually
// prepared fresh — and count says whether a hit is: the syntax pre-check of
// a script's later statements peeks without counting.
func (c *planCache) get(version uint64, depth int, shape []byte, params []atom.Value, count bool) *prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[planKey{version, depth, string(shape)}]
	if !ok {
		return nil
	}
	p := el.Value.(*planEntry).prep
	if !p.fits(params) {
		return nil
	}
	if count {
		c.hits++
	}
	c.ll.MoveToFront(el)
	return p
}

// putMiss stores a freshly prepared statement and counts the miss that led
// to it. It replaces an entry of the same shape whose structural literals
// differed.
func (c *planCache) putMiss(version uint64, depth int, shape []byte, p *prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	key := planKey{version, depth, string(shape)}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).prep = p
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&planEntry{key: key, prep: p})
	for c.ll.Len() > planCacheShapes {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
