package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"primelabel/internal/server/api"
)

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	r := func(n int) *api.QueryResponse { return &api.QueryResponse{Count: n} }
	c.put("a", 0, r(1))
	c.put("b", 0, r(2))
	if _, ok := c.get("a", 0); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// a was just used, so adding c must evict b.
	c.put("c", 0, r(3))
	if _, ok := c.get("b", 0); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, ok := c.get("a", 0); !ok || got.resp.Count != 1 {
		t.Fatalf("a = %+v, %v", got, ok)
	}
	if got, ok := c.get("c", 0); !ok || got.resp.Count != 3 {
		t.Fatalf("c = %+v, %v", got, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestQueryCacheReplaceInPlace(t *testing.T) {
	c := newQueryCache(4)
	c.put("q", 1, &api.QueryResponse{Count: 1})
	c.put("q", 1, &api.QueryResponse{Count: 2}) // replace in place
	if got, _ := c.get("q", 1); got.resp.Count != 2 {
		t.Fatalf("replace kept old value %d", got.resp.Count)
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
	c.put("q", 1, &api.QueryResponse{Count: 1})
	c.put("other", 1, &api.QueryResponse{Count: 9})
	if got, ok := c.get("q", 1); !ok || got.resp.Count != 1 {
		t.Fatalf("same-generation lookup missed: %+v, %v", got, ok)
	}
	if _, ok := c.get("q", 2); ok {
		t.Fatal("stale-generation lookup hit")
	}
	if c.len() != 1 {
		t.Fatalf("stale entry not evicted lazily: len = %d, want 1", c.len())
	}
	// The untouched entry survives the other's invalidation (no sweep)...
	if got, ok := c.get("other", 1); !ok || got.resp.Count != 9 {
		t.Fatalf("unrelated entry lost: %+v, %v", got, ok)
	}
	// ...and a put at the new generation overwrites gen and value together.
	c.put("other", 2, &api.QueryResponse{Count: 10})
	if got, ok := c.get("other", 2); !ok || got.resp.Count != 10 {
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
	c.put("q", 1, &api.QueryResponse{Count: 1})
	c.get("q", 1) // hit
	c.get("q", 1) // hit
	c.get("q", 2) // miss: stale generation
	if hits, misses := c.counters(); hits != 2 || misses != 2 {
		t.Fatalf("counters = %d hits, %d misses; want 2, 2", hits, misses)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	c := newQueryCache(0)
	c.put("q", 0, &api.QueryResponse{Count: 1})
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
					c.put(key, gen, &api.QueryResponse{Count: i})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheEntryHitBody pins the hit-body memo: the bytes are
// api.AppendQueryResponse of the entry's response with Cached set, and
// every later hit gets the same bytes without re-encoding.
func TestCacheEntryHitBody(t *testing.T) {
	c := newQueryCache(4)
	resp := &api.QueryResponse{Generation: 3, Count: 1, Nodes: []api.NodeRef{{ID: 2, Path: "/a/b", Label: "6", Text: "x"}}}
	c.put("q", 3, resp)
	ent, ok := c.get("q", 3)
	if !ok {
		t.Fatal("miss")
	}
	want, err := api.AppendQueryResponse(nil, &api.QueryResponse{Generation: 3, Count: 1, Cached: true, Nodes: resp.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ent.hitBody(context.Background())
	if err != nil || !bytes.Equal(first, want) {
		t.Fatalf("hit body = %q, %v; want %q", first, err, want)
	}
	again, _ := ent.hitBody(context.Background())
	if &again[0] != &first[0] {
		t.Fatal("second hit re-encoded the body")
	}
	if resp.Cached {
		t.Fatal("hitBody marked the cached response itself")
	}
}

// TestQueryCacheHitBodyGenerations checks that a newer generation never
// serves an older generation's bytes: neither after a stale probe evicts
// the entry, nor when put replaces a same-key entry in place, nor when a
// reader fills the body of an entry put has already replaced.
func TestQueryCacheHitBodyGenerations(t *testing.T) {
	ctx := context.Background()
	genOf := func(b []byte) uint64 {
		var r api.QueryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r.Generation
	}
	c := newQueryCache(4)
	c.put("q", 1, &api.QueryResponse{Generation: 1})
	e1, _ := c.get("q", 1)
	if _, err := e1.hitBody(ctx); err != nil {
		t.Fatal(err)
	}
	// In-place replacement at a newer generation.
	c.put("q", 2, &api.QueryResponse{Generation: 2})
	e2, ok := c.get("q", 2)
	if !ok || e2 == e1 || e2.body.Load() != nil {
		t.Fatalf("put at generation 2 kept the old entry or its body (ok=%v)", ok)
	}
	if b, _ := e2.hitBody(ctx); genOf(b) != 2 {
		t.Fatalf("generation 2 served %q", b)
	}
	// A reader still holding the replaced entry fills only that entry.
	stale, _ := c.get("q", 2)
	c.put("q", 3, &api.QueryResponse{Generation: 3})
	if b, _ := stale.hitBody(ctx); genOf(b) != 2 {
		t.Fatalf("stale entry served %q", b)
	}
	if e3, _ := c.get("q", 3); e3.body.Load() != nil {
		t.Fatal("late fill of a replaced entry reached its replacement")
	}
	// A stale probe evicts; the re-put starts without a body.
	if _, ok := c.get("q", 4); ok {
		t.Fatal("stale generation hit")
	}
	c.put("q", 4, &api.QueryResponse{Generation: 4})
	if e4, _ := c.get("q", 4); e4.body.Load() != nil {
		t.Fatal("re-put after eviction carried a body")
	}
}

// TestCacheEntryHitBodyConcurrentFirstHit races many readers on the first
// hit of one entry (run under -race): every reader gets the same bytes,
// and the published body is one of them.
func TestCacheEntryHitBodyConcurrentFirstHit(t *testing.T) {
	c := newQueryCache(4)
	nodes := make([]api.NodeRef, 500)
	for i := range nodes {
		nodes[i] = api.NodeRef{ID: i, Path: "/a/b", Label: fmt.Sprint(2 * i)}
	}
	c.put("q", 7, &api.QueryResponse{Generation: 7, Count: len(nodes), Nodes: nodes})
	want, err := api.AppendQueryResponse(nil, &api.QueryResponse{Generation: 7, Count: len(nodes), Cached: true, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	bodies := make([][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ent, ok := c.get("q", 7)
			if !ok {
				t.Error("miss")
				return
			}
			bodies[i], _ = ent.hitBody(context.Background())
		}(i)
	}
	close(start)
	wg.Wait()
	ent, _ := c.get("q", 7)
	if p := ent.body.Load(); p == nil || !bytes.Equal(*p, want) {
		t.Fatal("published body is missing or wrong")
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("reader %d got %d bytes, want the %d-byte hit body", i, len(b), len(want))
		}
	}
}
