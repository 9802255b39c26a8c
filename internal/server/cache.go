package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
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
// Entries and the *api.QueryResponse values they hold are shared between
// requests and immutable once stored, apart from the lazily filled hit
// body; put replaces an entry rather than rewriting it. The hit/miss
// counters are atomics read by the metrics scraper without taking the
// cache lock.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // query -> element whose Value is *cacheEntry

	hits   atomic.Uint64 // lookups answered from a generation-current entry
	misses atomic.Uint64 // lookups that fell through to evaluation
}

type cacheEntry struct {
	key  string
	gen  uint64 // document generation the response was computed against
	resp *api.QueryResponse

	// body memoizes resp encoded exactly as a cache hit answers it, filled
	// on the first hit that asks for it (hitBody). A fill that races a
	// newer generation's put lands on the entry put replaced, which no
	// lookup returns again.
	body atomic.Pointer[[]byte]
}

// hitResponse returns a copy of the entry's response marked as a cache
// hit. The copy shares the entry's node slice.
func (e *cacheEntry) hitResponse() *api.QueryResponse {
	resp := *e.resp
	resp.Cached = true
	return &resp
}

// hitBody returns hitResponse's JSON encoding (api.AppendQueryResponse),
// encoding it on the first call and recording that call's encode span on
// ctx's trace. Concurrent first calls may each encode; the bytes are
// identical and the first published copy is kept. The returned slice is
// shared by every later hit and must not be modified.
func (e *cacheEntry) hitBody(ctx context.Context) ([]byte, error) {
	if b := e.body.Load(); b != nil {
		return *b, nil
	}
	defer trace.Start(ctx, trace.StageEncode)()
	b, err := api.AppendQueryResponse(nil, e.hitResponse())
	if err != nil {
		return nil, err
	}
	if !e.body.CompareAndSwap(nil, &b) {
		b = *e.body.Load()
	}
	return b, nil
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

// put stores a response computed at generation gen, evicting the least
// recently used entry when full. A same-query entry (from an older
// generation, say) is replaced in its LRU slot by a fresh entry, so its
// hit body goes with it.
func (c *queryCache) put(query string, gen uint64, resp *api.QueryResponse) {
	if c.cap <= 0 {
		return
	}
	ent := &cacheEntry{key: query, gen: gen, resp: resp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[query]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[query] = c.ll.PushFront(ent)
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
