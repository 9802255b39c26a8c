package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
)

// sampleXML has this element numbering in document order:
//
//	0 store, 1 shelf, 2 book, 3 title(A), 4 book, 5 title(B),
//	6 shelf, 7 book, 8 title(C)
const sampleXML = `<store><shelf><book><title>A</title></book><book><title>B</title></book></shelf><shelf><book><title>C</title></book></shelf></store>`

// startTestServer boots a server on a random port and returns a client.
func startTestServer(t *testing.T) *client.Client {
	t.Helper()
	srv, err := New(Config{RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// 10s, not 5: under the full -race suite the test binaries of every
		// package run in parallel and a loaded machine can need the slack to
		// drain the concurrency-heavy tests' in-flight requests.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return client.New("http://"+addr, nil)
}

func loadSample(t *testing.T, c *client.Client, name string) api.DocInfo {
	t.Helper()
	info, err := c.Load(name, api.LoadRequest{XML: sampleXML, TrackOrder: true, PowerOfTwoLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestLoadInfoListDelete(t *testing.T) {
	c := startTestServer(t)
	info := loadSample(t, c, "books")
	if info.Elements != 9 {
		t.Fatalf("elements = %d, want 9", info.Elements)
	}
	if !strings.HasPrefix(info.Scheme, "prime") {
		t.Fatalf("scheme = %q", info.Scheme)
	}
	if info.Generation != 0 || info.Planner != "extent" {
		t.Fatalf("unexpected info %+v", info)
	}

	got, err := c.Info("books")
	if err != nil || got.Elements != 9 {
		t.Fatalf("Info = %+v, %v", got, err)
	}
	list, err := c.List()
	if err != nil || len(list) != 1 || list[0].Name != "books" {
		t.Fatalf("List = %+v, %v", list, err)
	}
	if err := c.Delete("books"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info("books"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("Info after delete: %v", err)
	}
	if err := c.Delete("books"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func isStatus(err error, code int) bool {
	ae, ok := err.(*client.APIError)
	return ok && ae.Status == code
}

func TestQueryAndCache(t *testing.T) {
	c := startTestServer(t)
	loadSample(t, c, "books")

	resp, err := c.Query("books", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || resp.Cached {
		t.Fatalf("first query: %+v", resp)
	}
	wantIDs := []int{2, 4, 7}
	for i, n := range resp.Nodes {
		if n.ID != wantIDs[i] {
			t.Fatalf("node %d id = %d, want %d", i, n.ID, wantIDs[i])
		}
		if n.Path != "store/shelf/book" {
			t.Fatalf("node path = %q", n.Path)
		}
		if n.Label == "" {
			t.Fatal("label missing")
		}
	}

	again, err := c.Query("books", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Count != 3 {
		t.Fatalf("second query not cached: %+v", again)
	}

	deep, err := c.Query("books", "/store/shelf[2]//title")
	if err != nil {
		t.Fatal(err)
	}
	if deep.Count != 1 || deep.Nodes[0].ID != 8 || deep.Nodes[0].Text != "C" {
		t.Fatalf("positional query: %+v", deep)
	}

	ordered, err := c.Query("books", "/store/shelf[1]/book[1]/following::book")
	if err != nil {
		t.Fatal(err)
	}
	if ordered.Count != 2 {
		t.Fatalf("following axis: %+v", ordered)
	}

	if _, err := c.Query("books", "///"); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("bad xpath: %v", err)
	}
	if _, err := c.Query("nosuch", "//book"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown doc: %v", err)
	}
}

func TestRelations(t *testing.T) {
	c := startTestServer(t)
	loadSample(t, c, "books")

	cases := []struct {
		kind string
		a, b int
		want bool
	}{
		{api.RelAncestor, 0, 3, true},
		{api.RelAncestor, 3, 0, false},
		{api.RelAncestor, 1, 8, false},
		{api.RelParent, 2, 3, true},
		{api.RelParent, 1, 3, false},
		{api.RelBefore, 2, 4, true},
		{api.RelBefore, 7, 2, false},
	}
	for _, tc := range cases {
		resp, err := c.Relation("books", api.RelationRequest{Kind: tc.kind, A: tc.a, B: tc.b})
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", tc.kind, tc.a, tc.b, err)
		}
		if resp.Result != tc.want {
			t.Errorf("%s(%d,%d) = %v, want %v", tc.kind, tc.a, tc.b, resp.Result, tc.want)
		}
	}

	// Generation pinning: gen 0 is current, gen 7 is stale.
	gen := uint64(0)
	if _, err := c.Relation("books", api.RelationRequest{Kind: api.RelAncestor, A: 0, B: 1, Generation: &gen}); err != nil {
		t.Fatalf("current generation rejected: %v", err)
	}
	stale := uint64(7)
	_, err := c.Relation("books", api.RelationRequest{Kind: api.RelAncestor, A: 0, B: 1, Generation: &stale})
	if !client.IsStale(err) {
		t.Fatalf("stale generation: %v", err)
	}

	if _, err := c.Relation("books", api.RelationRequest{Kind: "cousin", A: 0, B: 1}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := c.Relation("books", api.RelationRequest{Kind: api.RelAncestor, A: 0, B: 99}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("id out of range: %v", err)
	}
}

func TestUpdatesInvalidateAndRelabel(t *testing.T) {
	c := startTestServer(t)
	loadSample(t, c, "books")

	// Warm the cache, then insert a book between A and B on shelf 1 (id 1).
	if _, err := c.Query("books", "//book"); err != nil {
		t.Fatal(err)
	}
	up, err := c.Insert("books", 1, 1, "book")
	if err != nil {
		t.Fatal(err)
	}
	if up.Generation != 1 {
		t.Fatalf("generation = %d, want 1", up.Generation)
	}
	if up.Relabeled < 1 {
		t.Fatalf("relabeled = %d, want >= 1", up.Relabeled)
	}
	// New node sits right after title(A): store 0, shelf 1, book 2,
	// title 3, new book 4.
	if up.Node != 4 {
		t.Fatalf("new node id = %d, want 4", up.Node)
	}

	resp, err := c.Query("books", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("cache must be invalidated by update")
	}
	if resp.Count != 4 {
		t.Fatalf("book count after insert = %d, want 4", resp.Count)
	}
	if resp.Generation != 1 {
		t.Fatalf("query generation = %d", resp.Generation)
	}

	// Document order must hold for the inserted node.
	ok, err := c.Before("books", 2, 4)
	if err != nil || !ok {
		t.Fatalf("Before(book A, new) = %v, %v", ok, err)
	}
	ok, err = c.Before("books", 4, 5)
	if err != nil || !ok {
		t.Fatalf("Before(new, title B) = %v, %v", ok, err)
	}

	// Wrap title(A) (still id 3) in an annotation element.
	wrap, err := c.Wrap("books", 3, "annotated")
	if err != nil {
		t.Fatal(err)
	}
	if wrap.Generation != 2 || wrap.Relabeled < 2 {
		t.Fatalf("wrap response %+v", wrap)
	}
	deep, err := c.Query("books", "//annotated/title")
	if err != nil || deep.Count != 1 {
		t.Fatalf("wrapped title: %+v, %v", deep, err)
	}

	// Delete the second shelf subtree.
	info, _ := c.Info("books")
	shelves, err := c.Query("books", "/store/shelf")
	if err != nil || shelves.Count != 2 {
		t.Fatalf("shelves: %+v, %v", shelves, err)
	}
	del, err := c.DeleteNode("books", shelves.Nodes[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if del.Node != -1 || del.Generation != info.Generation+1 {
		t.Fatalf("delete response %+v", del)
	}
	after, err := c.Query("books", "//book")
	if err != nil || after.Count != 3 {
		t.Fatalf("books after shelf delete: %+v, %v", after, err)
	}

	// Conditional update against a stale generation conflicts.
	stale := uint64(0)
	_, err = c.Update("books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "x", Generation: &stale})
	if !client.IsStale(err) {
		t.Fatalf("stale conditional update: %v", err)
	}

	// Validation errors.
	if _, err := c.Update("books", api.UpdateRequest{Op: "rename", Target: 1}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := c.Update("books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("missing tag: %v", err)
	}
	if _, err := c.DeleteNode("books", 0); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("deleting the root must fail: %v", err)
	}
}

func TestSchemesAcrossTheWire(t *testing.T) {
	c := startTestServer(t)
	for _, scheme := range []string{"prime", "prime-bottomup", "interval", "xrel", "prefix-1", "prefix-2", "dewey", "float"} {
		req := api.LoadRequest{XML: sampleXML, Scheme: scheme}
		if scheme == "prime" {
			req.TrackOrder = true
		}
		if strings.HasPrefix(scheme, "prefix") {
			req.OrderPreserving = true
		}
		info, err := c.Load("doc-"+scheme, req)
		if err != nil {
			t.Fatalf("%s: load: %v", scheme, err)
		}
		if info.Elements != 9 {
			t.Fatalf("%s: elements = %d", scheme, info.Elements)
		}
		resp, err := c.Query("doc-"+scheme, "//book")
		if err != nil || resp.Count != 3 {
			t.Fatalf("%s: query: %+v, %v", scheme, resp, err)
		}
		ok, err := c.IsAncestor("doc-"+scheme, 0, 3)
		if err != nil || !ok {
			t.Fatalf("%s: ancestor: %v, %v", scheme, ok, err)
		}
	}
	if _, err := c.Load("bad", api.LoadRequest{XML: sampleXML, Scheme: "nope"}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown scheme: %v", err)
	}
	if _, err := c.Load("bad", api.LoadRequest{XML: "<broken"}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("broken xml: %v", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	c := startTestServer(t)
	loadSample(t, c, "books")
	for i := 0; i < 3; i++ {
		if _, err := c.Query("books", "//title"); err != nil {
			t.Fatal(err)
		}
	}

	h, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Documents != 1 {
		t.Fatalf("healthz %+v", h)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"labeld_documents 1",
		"labeld_queries_total 3",
		"labeld_query_cache_hits_total 2",
		"labeld_query_cache_misses_total 1",
		`labeld_requests_total{endpoint="query"} 3`,
		`labeld_requests_total{endpoint="load"} 1`,
		`labeld_request_duration_seconds_count{endpoint="query"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGracefulShutdown verifies a request admitted before Shutdown is
// served to completion, and that the listener refuses connections after.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := client.New("http://"+addr, nil)
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Healthz(); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestQueryHitBody drives /query over HTTP through a miss, the first hit
// (which fills the cache entry's body memo) and a memo hit, and checks what
// each answers: the hit body is the entry's response encoded with Cached
// set, identical on every hit, with a matching Content-Length. Count and
// exists answers from the full entry and explain hits are unaffected, and
// after an update the new generation's bytes are served, never the old.
func TestQueryHitBody(t *testing.T) {
	srv, err := New(Config{RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Store().Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.Store().Load(context.Background(), "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: %d %q %v", path, body, resp.StatusCode, b, err)
		}
		if cl := resp.Header.Get("Content-Length"); path == "/docs/books/query" && cl != strconv.Itoa(len(b)) {
			t.Fatalf("Content-Length = %q for a %d-byte body", cl, len(b))
		}
		return b
	}
	const q = `{"xpath":"//book"}`
	miss := post("/docs/books/query", q)
	hit := post("/docs/books/query", q)
	if again := post("/docs/books/query", q); !bytes.Equal(again, hit) {
		t.Fatalf("memo hit %q differs from first hit %q", again, hit)
	}
	if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
		t.Fatalf("hit body %q, want the miss body marked cached %q", hit, want)
	}
	d, err := srv.store.get("books")
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := d.cache.get("//book", 0)
	if !ok || ent.body.Load() == nil {
		t.Fatal("first hit did not fill the entry's body")
	}
	want, err := api.AppendQueryResponse(nil, ent.hitResponse())
	if err != nil || !bytes.Equal(hit, want) {
		t.Fatalf("hit body %q, want AppendQueryResponse of the entry %q", hit, want)
	}

	if got := string(post("/docs/books/query", `{"xpath":"//book","mode":"count"}`)); got != "{\"generation\":0,\"count\":3,\"cached\":true}\n" {
		t.Fatalf("count from the full entry = %q", got)
	}
	if got := string(post("/docs/books/query", `{"xpath":"//book","mode":"exists"}`)); got != "{\"generation\":0,\"count\":3,\"cached\":true,\"exists\":true}\n" {
		t.Fatalf("exists from the full entry = %q", got)
	}
	var explained, plain api.QueryResponse
	if err := json.Unmarshal(post("/docs/books/query?explain=1", q), &explained); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit, &plain); err != nil {
		t.Fatal(err)
	}
	if explained.Explain == nil || !explained.Explain.CacheHit || !explained.Cached ||
		!reflect.DeepEqual(explained.Nodes, plain.Nodes) || explained.Generation != plain.Generation {
		t.Fatalf("explain hit = %+v, want the hit's nodes plus a cache-hit profile", explained)
	}

	post("/docs/books/update", `{"op":"insert","parent":1,"index":0,"tag":"book"}`)
	for i, wantCached := range []bool{false, true, true} {
		var r api.QueryResponse
		if err := json.Unmarshal(post("/docs/books/query", q), &r); err != nil {
			t.Fatal(err)
		}
		if r.Generation != 1 || r.Count != 4 || r.Cached != wantCached {
			t.Fatalf("query %d after the update: generation %d, count %d, cached %v", i, r.Generation, r.Count, r.Cached)
		}
	}
}
