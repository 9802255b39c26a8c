package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
)

// queryCache is a fixed-capacity LRU of query results for one document.
// Every entry is tagged with the document generation it was computed
// against; a lookup only hits when the entry's generation matches the
// document's current one, and a stale entry found in place is evicted
// lazily. Mutations therefore never sweep the cache — a failed or no-op
// update (which leaves the generation unchanged) keeps every cached
// result live, and a real update invalidates entries one probe at a time
// as they are re-requested.
//
// The cache has its own mutex so readers holding the document's RLock can
// share it: lookups and fills interleave freely across concurrent queries.
// Entries are shared between requests and immutable once stored, apart
// from the lazily filled node-ref memo; put replaces an entry rather than
// rewriting it. The hit/miss counters are atomics read by the metrics
// scraper without taking the cache lock.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // query -> element whose Value is *cacheEntry

	hits   atomic.Uint64 // lookups answered from a generation-current entry
	misses atomic.Uint64 // lookups that fell through to evaluation
}

// cacheEntry is one cached result. A count slot (countCacheKey) holds only
// count; a full entry also holds the result rows, which stay valid row ids
// for as long as the entry's generation is current, and which every hit
// re-reads under the document's read lock.
type cacheEntry struct {
	key   string
	gen   uint64 // document generation the result was computed against
	count int
	rows  rdb.RowSet

	// body is the /query answer to a nodes-mode hit without explain
	// (cached:true), copied at put from the bytes of the /query miss that
	// filled the entry; nil when an in-process Store.Query filled it.
	body []byte
	// nodes memoizes rows as node refs for in-process hits, filled on the
	// first one (nodesOf).
	nodes atomic.Pointer[[]api.NodeRef]
}

// nodesOf returns the entry's rows as node refs, materialized from d on
// the first call. The caller holds d's read lock at the entry's
// generation. Concurrent first calls may each materialize; the refs are
// identical and the first published slice is kept. The slice is shared by
// every later hit and must not be modified.
func (e *cacheEntry) nodesOf(d *document) []api.NodeRef {
	if p := e.nodes.Load(); p != nil {
		return *p
	}
	nodes := d.newMaterializer().nodes(e.rows)
	if !e.nodes.CompareAndSwap(nil, &nodes) {
		nodes = *e.nodes.Load()
	}
	return nodes
}

// newQueryCache returns an LRU holding up to capacity results; capacity <= 0
// disables caching (every lookup misses, puts are dropped).
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached entry for a query computed at generation gen,
// promoting it to most recently used. An entry from any other generation
// is stale: it is evicted and the lookup counts as a miss.
func (c *queryCache) get(query string, gen uint64) (*cacheEntry, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[query]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return ent, true
}

// enabled reports whether put stores anything, so a miss can skip
// building an entry's hit body when the cache is off.
func (c *queryCache) enabled() bool { return c.cap > 0 }

// put stores ent, evicting the least recently used entry when full. A
// same-key entry (from an older generation, say) is replaced in its LRU
// slot.
func (c *queryCache) put(ent *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ent.key]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns the cumulative hit and miss counts (safe without the
// cache lock).
func (c *queryCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// len returns the number of cached results (stale entries not yet
// lazily evicted included).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
