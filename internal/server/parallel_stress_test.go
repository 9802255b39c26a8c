package server

import (
	"context"
	"strings"
	"sync"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/xmltree"
)

// TestParallelQueriesDuringBatchedUpdates races sharded query evaluation
// against batched and single updates on the same document, under both
// reindex paths: one document patches its element table incrementally, the
// other forces a full rebuild per op (which must carry the table's
// parallelism settings onto the fresh table). Fan-out is forced (worker
// count 4, work threshold 1) so every descendant scan shards even while
// writers are bumping the generation. Run with -race; the invariant beyond
// "no race, no error" is that //book counts only grow, since the writers
// only insert.
func TestParallelQueriesDuringBatchedUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	for _, doc := range []struct {
		name    string
		noPatch bool
	}{{"patched", false}, {"rebuilt", true}} {
		if _, err := st.Load(ctx, doc.name, api.LoadRequest{XML: benchXML(2_000), TrackOrder: true}); err != nil {
			t.Fatal(err)
		}
		d, err := st.get(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		d.noPatch = doc.noPatch
		d.table.Parallelism = 4
		d.table.MinParallelWork = 1
	}

	queries := []string{"//book", "/store//book", "//shelf//following::book", "//book//preceding::shelf"}
	const (
		readers     = 4
		queriesEach = 30
		batches     = 10
		batchSize   = 8
	)
	initial := make(map[string]int)
	for _, name := range []string{"patched", "rebuilt"} {
		resp, err := st.Query(ctx, name, "//book")
		if err != nil {
			t.Fatal(err)
		}
		initial[name] = resp.Count
	}

	var wg sync.WaitGroup
	for _, name := range []string{"patched", "rebuilt"} {
		// One writer per document: alternate batched and single inserts at
		// the end of the last shelf.
		shelf := lastShelf(t, st, name)
		wg.Add(1)
		go func(name string, shelf int) {
			defer wg.Done()
			appendBook := api.UpdateRequest{Op: api.OpInsert, Parent: shelf, Index: 1 << 30, Tag: "book"}
			req := api.BatchUpdateRequest{Ops: make([]api.UpdateRequest, batchSize)}
			for i := range req.Ops {
				req.Ops[i] = appendBook
			}
			for i := 0; i < batches; i++ {
				if resp, err := st.UpdateBatch(ctx, name, req); err != nil || resp.Failed != -1 {
					t.Errorf("%s batch %d: %v (failed=%d)", name, i, err, resp.Failed)
					return
				}
				if _, err := st.Update(ctx, name, appendBook); err != nil {
					t.Errorf("%s single %d: %v", name, i, err)
					return
				}
			}
		}(name, shelf)

		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(name string, r int) {
				defer wg.Done()
				for i := 0; i < queriesEach; i++ {
					q := queries[(r+i)%len(queries)]
					resp, err := st.Query(ctx, name, q)
					if err != nil {
						t.Errorf("%s reader %d %s: %v", name, r, q, err)
						return
					}
					if q == "//book" && resp.Count < initial[name] {
						t.Errorf("%s: //book count %d dropped below initial %d", name, resp.Count, initial[name])
						return
					}
				}
			}(name, r)
		}
	}
	wg.Wait()

	for _, name := range []string{"patched", "rebuilt"} {
		resp, err := st.Query(ctx, name, "//book")
		if err != nil {
			t.Fatal(err)
		}
		want := initial[name] + batches*(batchSize+1)
		if resp.Count != want {
			t.Errorf("%s: final //book count %d, want %d", name, resp.Count, want)
		}
	}
	if st.metrics.queryFanOuts.Load() == 0 {
		t.Error("no query fanned out despite forced parallelism — the stress ran sequentially")
	}
}

// TestLabelMemoFillsDuringWraps races the label-string memo's lazy fills
// against the writes that clear it. Readers of every kind — full, streamed
// and explained, all cache misses — start on a freshly loaded document, so
// they are the first to touch each label string, while a writer wraps
// shelves, which relabels every book below them. Run with -race; beyond
// "no race", every label served must be non-empty, and at the end every
// memoized string must equal its label (Check audits both memos).
func TestLabelMemoFillsDuringWraps(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx := context.Background()
	st := NewStore(NewMetrics(), -1)
	if _, err := st.Load(ctx, "fresh", api.LoadRequest{
		XML: benchXML(1_000), TrackOrder: true, PowerOfTwoLeaves: true,
	}); err != nil {
		t.Fatal(err)
	}
	const (
		readersPerKind = 2
		queriesEach    = 12
		wraps          = 15
	)
	checkNodes := func(who string, nodes []api.NodeRef) bool {
		for _, n := range nodes {
			if n.Label == "" || !strings.HasSuffix(n.Path, "/book") {
				t.Errorf("%s: bad node %+v", who, n)
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < wraps; i++ {
			shelves, err := st.Query(ctx, "fresh", "//shelf")
			if err != nil {
				t.Errorf("wrap %d: %v", i, err)
				return
			}
			gen := shelves.Generation
			target := shelves.Nodes[i%len(shelves.Nodes)].ID
			if _, err := st.Update(ctx, "fresh", api.UpdateRequest{
				Op: api.OpWrap, Target: target, Tag: "aisle", Generation: &gen,
			}); err != nil {
				t.Errorf("wrap %d: %v", i, err)
				return
			}
		}
	}()
	readers := map[string]func() ([]api.NodeRef, error){
		"full": func() ([]api.NodeRef, error) {
			resp, err := st.Query(ctx, "fresh", "//book")
			return resp.Nodes, err
		},
		"explain": func() ([]api.NodeRef, error) {
			resp, err := st.QueryExplain(ctx, "fresh", "//shelf/book")
			return resp.Nodes, err
		},
		"stream": func() ([]api.NodeRef, error) {
			var nodes []api.NodeRef
			err := st.QueryStream(ctx, "fresh", "//book", false, func(v any) error {
				if c, ok := v.(api.StreamChunk); ok {
					nodes = append(nodes, c.Nodes...)
				}
				return nil
			})
			return nodes, err
		},
	}
	for kind, read := range readers {
		for r := 0; r < readersPerKind; r++ {
			wg.Add(1)
			go func(who string, read func() ([]api.NodeRef, error)) {
				defer wg.Done()
				for i := 0; i < queriesEach; i++ {
					nodes, err := read()
					if err != nil {
						t.Errorf("%s: %v", who, err)
						return
					}
					if !checkNodes(who, nodes) {
						return
					}
				}
			}(kind, read)
		}
	}
	wg.Wait()

	// The wraps left books under two different tag paths, so the
	// materializer's path memo must follow each row's own ancestors.
	full, err := readers["full"]()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := readers["stream"]()
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.get("fresh")
	if err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	lab := d.lab.(*prime.Labeling)
	if err := lab.Check(); err != nil {
		t.Fatal(err)
	}
	if len(full) != len(streamed) {
		t.Fatalf("full query %d nodes, stream %d", len(full), len(streamed))
	}
	for i, got := range full {
		n := d.table.Node(got.ID)
		want := api.NodeRef{ID: got.ID, Path: xmltree.PathTo(n), Label: lab.LabelOf(n).String(), Text: n.Text()}
		if got != want || streamed[i] != want {
			t.Fatalf("node %d: full %+v, stream %+v, want %+v", i, got, streamed[i], want)
		}
	}
}
