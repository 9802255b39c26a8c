package server

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"primelabel/internal/server/api"
)

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	c.put(&cacheEntry{key: "a", gen: 0, count: 1})
	c.put(&cacheEntry{key: "b", gen: 0, count: 2})
	if _, ok := c.get("a", 0); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// a was just used, so adding c must evict b.
	c.put(&cacheEntry{key: "c", gen: 0, count: 3})
	if _, ok := c.get("b", 0); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, ok := c.get("a", 0); !ok || got.count != 1 {
		t.Fatalf("a = %+v, %v", got, ok)
	}
	if got, ok := c.get("c", 0); !ok || got.count != 3 {
		t.Fatalf("c = %+v, %v", got, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestQueryCacheReplaceInPlace(t *testing.T) {
	c := newQueryCache(4)
	c.put(&cacheEntry{key: "q", gen: 1, count: 1})
	c.put(&cacheEntry{key: "q", gen: 1, count: 2}) // replace in place
	if got, _ := c.get("q", 1); got.count != 2 {
		t.Fatalf("replace kept old value %d", got.count)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d after replace, want 1", c.len())
	}
}

// TestQueryCacheGenerationTagging pins the lazy-invalidation contract: an
// entry only hits at the generation it was computed at, a stale probe
// evicts it, and a re-put at the new generation serves again — no sweep
// anywhere.
func TestQueryCacheGenerationTagging(t *testing.T) {
	c := newQueryCache(4)
	c.put(&cacheEntry{key: "q", gen: 1, count: 1})
	c.put(&cacheEntry{key: "other", gen: 1, count: 9})
	if got, ok := c.get("q", 1); !ok || got.count != 1 {
		t.Fatalf("same-generation lookup missed: %+v, %v", got, ok)
	}
	if _, ok := c.get("q", 2); ok {
		t.Fatal("stale-generation lookup hit")
	}
	if c.len() != 1 {
		t.Fatalf("stale entry not evicted lazily: len = %d, want 1", c.len())
	}
	// The untouched entry survives the other's invalidation (no sweep)...
	if got, ok := c.get("other", 1); !ok || got.count != 9 {
		t.Fatalf("unrelated entry lost: %+v, %v", got, ok)
	}
	// ...and a put at the new generation overwrites gen and value together.
	c.put(&cacheEntry{key: "other", gen: 2, count: 10})
	if got, ok := c.get("other", 2); !ok || got.count != 10 {
		t.Fatalf("new generation missed: %+v, %v", got, ok)
	}
	if _, ok := c.get("other", 1); ok {
		t.Fatal("old generation still served after re-put")
	}
}

// TestQueryCacheCounters checks the hit/miss counter pair: compulsory
// misses, same-generation hits, and stale-generation probes (counted as
// misses) all land where the per-document metric series expects them.
func TestQueryCacheCounters(t *testing.T) {
	c := newQueryCache(4)
	c.get("q", 1) // miss: empty
	c.put(&cacheEntry{key: "q", gen: 1, count: 1})
	c.get("q", 1) // hit
	c.get("q", 1) // hit
	c.get("q", 2) // miss: stale generation
	if hits, misses := c.counters(); hits != 2 || misses != 2 {
		t.Fatalf("counters = %d hits, %d misses; want 2, 2", hits, misses)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	c := newQueryCache(0)
	c.put(&cacheEntry{key: "q", gen: 0, count: 1})
	if _, ok := c.get("q", 0); ok {
		t.Fatal("capacity 0 must never cache")
	}
	if hits, misses := c.counters(); hits != 0 || misses != 1 {
		t.Fatalf("disabled cache counters = %d hits, %d misses; want 0, 1", hits, misses)
	}
}

// TestQueryCacheConcurrent exercises the cache's own lock under -race,
// with writers racing on overlapping keys across moving generations.
func TestQueryCacheConcurrent(t *testing.T) {
	c := newQueryCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", (w+i)%12)
				gen := uint64(i / 50)
				if _, ok := c.get(key, gen); !ok {
					c.put(&cacheEntry{key: key, gen: gen, count: i})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheEntryHitBody pins the hit body a /query miss leaves in its
// entry: api.AppendQueryResponse of the entry's rows as node refs with
// Cached set, built from the miss's own bytes even when the miss carried
// an explain profile, which the hit body must not.
func TestCacheEntryHitBody(t *testing.T) {
	ctx := context.Background()
	st := NewStore(NewMetrics(), 4)
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	miss, shared, err := st.appendQuery(ctx, "books", api.QueryRequest{XPath: "//book"}, true, nil)
	if err != nil || shared || !bytes.Contains(miss, []byte(`"explain":`)) {
		t.Fatalf("explain miss = %q, shared %v, %v", miss, shared, err)
	}
	d, _ := st.get("books")
	ent, ok := d.cache.get("//book", 0)
	if !ok || ent.count != 3 || len(ent.rows) != 3 {
		t.Fatalf("entry = %+v, %v", ent, ok)
	}
	want, err := api.AppendQueryResponse(nil, &api.QueryResponse{
		Count: 3, Cached: true, Nodes: d.newMaterializer().nodes(ent.rows),
	})
	if err != nil || !bytes.Equal(ent.body, want) {
		t.Fatalf("hit body = %q, want %q", ent.body, want)
	}
	hit, shared, err := st.appendQuery(ctx, "books", api.QueryRequest{XPath: "//book"}, false, nil)
	if err != nil || !shared || &hit[0] != &ent.body[0] {
		t.Fatalf("hit answered %q (shared %v, %v), not the entry's body", hit, shared, err)
	}
	if ent.nodes.Load() != nil {
		t.Fatal("the /query path materialized node refs")
	}
}

// TestQueryCacheHitBodyGenerations checks that a newer generation never
// serves an older generation's bytes: neither after a stale probe evicts
// the entry, nor when put replaces a same-key entry in place, and a reader
// still holding a replaced entry keeps that entry's own bytes.
func TestQueryCacheHitBodyGenerations(t *testing.T) {
	entry := func(gen uint64) *cacheEntry {
		return &cacheEntry{key: "q", gen: gen, body: []byte(fmt.Sprint(gen))}
	}
	c := newQueryCache(4)
	c.put(entry(1))
	stale, _ := c.get("q", 1)
	// In-place replacement at a newer generation.
	c.put(entry(2))
	if e2, ok := c.get("q", 2); !ok || e2 == stale || string(e2.body) != "2" {
		t.Fatalf("put at generation 2 kept the old entry or its body (ok=%v)", ok)
	}
	if string(stale.body) != "1" {
		t.Fatalf("replaced entry's body changed to %q", stale.body)
	}
	// A stale probe evicts; the re-put serves its own bytes.
	if _, ok := c.get("q", 3); ok {
		t.Fatal("stale generation hit")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not evicted: len = %d", c.len())
	}
	c.put(entry(3))
	if e3, ok := c.get("q", 3); !ok || string(e3.body) != "3" {
		t.Fatal("re-put after eviction did not serve its own body")
	}
}

// TestCacheEntryNodesConcurrentFirstHit races many in-process readers on
// the first hit of one entry (run under -race): every reader gets the
// entry's rows as node refs, and the published memo is one of them.
func TestCacheEntryNodesConcurrentFirstHit(t *testing.T) {
	ctx := context.Background()
	st := NewStore(NewMetrics(), 4)
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.appendQuery(ctx, "books", api.QueryRequest{XPath: "//*"}, false, nil); err != nil {
		t.Fatal(err)
	}
	d, _ := st.get("books")
	ent, _ := d.cache.get("//*", 0)
	want := d.newMaterializer().nodes(ent.rows)
	const readers = 16
	got := make([]*api.QueryResponse, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], _ = st.Query(ctx, "books", "//*")
		}(i)
	}
	close(start)
	wg.Wait()
	if p := ent.nodes.Load(); p == nil || !reflect.DeepEqual(*p, want) {
		t.Fatal("published node refs are missing or wrong")
	}
	for i, r := range got {
		if r == nil || !r.Cached || !reflect.DeepEqual(r.Nodes, want) {
			t.Fatalf("reader %d got %+v, want the entry's %d node refs", i, r, len(want))
		}
	}
}
