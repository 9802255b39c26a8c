package server

// Served-bytes parity: /query and /query/stream encode result rows
// straight into their bodies, so their bytes are held here to the
// reference encoding — api.AppendQueryResponse and api.AppendStreamChunk of
// the node refs the in-process Store.Query returns for the same query.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"primelabel/internal/buildinfo"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/xmltree"
)

// serve runs one request through h and returns the response body.
func serve(t testing.TB, h http.Handler, path, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// assertServedBytes checks the /query body (twice, so a cached answer is
// checked when the cache is on) and the /query/stream body for query on
// doc against the reference encoding of Store.Query's node refs. Each
// body is compared with the reference carrying the body's own cached flag.
func assertServedBytes(t testing.TB, h http.Handler, st *Store, doc, query string) {
	t.Helper()
	req, err := json.Marshal(api.QueryRequest{XPath: query})
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{
		serve(t, h, "/docs/"+doc+"/query", string(req)),
		serve(t, h, "/docs/"+doc+"/query", string(req)),
	}
	stream := serve(t, h, "/docs/"+doc+"/query/stream", string(req))
	ref, err := st.Query(context.Background(), doc, query)
	if err != nil {
		t.Fatal(err)
	}
	// The node refs come from the same path and label memos as the bytes,
	// so hold them to values computed from the tree without any memo.
	d, err := st.get(doc)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	for _, r := range ref.Nodes {
		n := d.table.Node(r.ID)
		want := api.NodeRef{ID: r.ID, Path: xmltree.PathTo(n), Label: r.Label, Text: n.Text()}
		if pl, ok := d.lab.(*prime.Labeling); ok {
			want.Label = pl.LabelOf(n).String()
		}
		if r != want {
			d.mu.RUnlock()
			t.Fatalf("%s on %s: node ref %+v, want %+v", query, doc, r, want)
		}
	}
	d.mu.RUnlock()
	cachedFlag := func(b []byte) bool {
		var r struct{ Cached bool }
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%s: %v in %q", query, err, b)
		}
		return r.Cached
	}
	for i, body := range bodies {
		want, err := api.AppendQueryResponse(nil, &api.QueryResponse{
			Generation: ref.Generation, Count: ref.Count, Cached: cachedFlag(body), Nodes: ref.Nodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s on %s: /query body %d\n got %q\nwant %q", query, doc, i, body, want)
		}
	}
	header, _, _ := bytes.Cut(stream, []byte("\n"))
	want, err := json.Marshal(api.StreamHeader{Generation: ref.Generation, Count: ref.Count, Cached: cachedFlag(header)})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	for base := 0; base < len(ref.Nodes); base += streamChunkSize {
		if want, err = api.AppendStreamChunk(want, &api.StreamChunk{Nodes: ref.Nodes[base:min(base+streamChunkSize, len(ref.Nodes))]}); err != nil {
			t.Fatal(err)
		}
	}
	if want, err = api.AppendStreamChunk(want, &api.StreamChunk{Done: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("%s on %s: /query/stream body\n got %q\nwant %q", query, doc, stream, want)
	}
}

// hostileXML is a document whose text needs every kind of JSON escaping
// the encoder handles that XML text can carry: HTML-sensitive and quoting
// characters, control bytes, U+2028, and an element with several text
// children (whose text is their concatenation, escaped as one string).
// The parser rejects invalid UTF-8, so that case rides in on hostileTags.
// The same tag under different parents at one depth (x under a and b)
// checks that path interning keys on the parent's path, not the tag alone.
const hostileXML = "<doc><t>&lt;b&gt; &amp; &quot;q&quot; back\\slash</t>" +
	"<t>tab\tnl\ncr\r&#1;&#31;</t><t>line\u2028sep\u2029para</t>" +
	"<t>one<br/>two &amp; three<br/>four</t><ünï>unicode</ünï>" +
	"<a><x>1</x></a><b><x>2</x></b></doc>"

// hostileTags are element names no XML parser accepts but the update API
// does; inserted after the load, they put escaping into tag paths.
var hostileTags = []string{`a<>&"\`, "ctl\x01\x1f", "bad\xfftag", "sep\u2028"}

// TestServedBytesHostileDocument loads hostileXML under every registered
// scheme and checks the served bytes of //* against the reference
// encoding, before and after the hostile-tag inserts (schemes without
// update support keep the parsed document).
func TestServedBytesHostileDocument(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range buildinfo.Schemes {
		for _, cacheSize := range []int{-1, 4} {
			srv, err := New(Config{CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			st, h := srv.Store(), srv.Handler()
			req := api.LoadRequest{XML: hostileXML, Scheme: scheme, TrackOrder: scheme == "prime"}
			if _, err := st.Load(ctx, "h", req); err != nil {
				t.Fatalf("%s: load: %v", scheme, err)
			}
			// In-process first, so an HTTP hit finds an entry without bytes.
			if _, err := st.Query(ctx, "h", "//*"); err != nil {
				t.Fatal(err)
			}
			assertServedBytes(t, h, st, "h", "//*")
			for i, tag := range hostileTags {
				_, err := st.Update(ctx, "h", api.UpdateRequest{Op: api.OpInsert, Parent: i + 1, Index: 0, Tag: tag})
				if err != nil {
					if scheme == "prime" {
						t.Fatalf("prime: insert %q: %v", tag, err)
					}
					t.Logf("%s: insert %q: %v", scheme, tag, err)
					break
				}
			}
			assertServedBytes(t, h, st, "h", "//*")
			assertServedBytes(t, h, st, "h", "//t")
			st.Close()
		}
	}
}

// TestHostileDocumentContent guards the hostile test's premise: the parsed
// document really carries the bytes the encoder must escape.
func TestHostileDocumentContent(t *testing.T) {
	st := NewStore(NewMetrics(), 0)
	if _, err := st.Load(context.Background(), "h", api.LoadRequest{XML: hostileXML}); err != nil {
		t.Fatal(err)
	}
	d, _ := st.get("h")
	var text strings.Builder
	multi := false
	xmltree.WalkElements(d.lab.Doc().Root, func(n *xmltree.Node) bool {
		text.WriteString(n.Text())
		k := 0
		for _, c := range n.Children {
			if c.Kind == xmltree.TextNode {
				k++
			}
		}
		multi = multi || k > 1
		return true
	})
	for _, want := range []string{"<", ">", "&", `"`, `\`, "\t", "\n", "\r", "\x01", "\u2028", "\u2029"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("parsed text lacks %q", want)
		}
	}
	if !multi {
		t.Error("no element has several text children")
	}
}
