package server

// Result rows to response bytes. A /query miss and every /query/stream
// chunk turn the extent join's rows into JSON in one pass under the
// document's read lock, with no per-row heap object: each row's node
// object is appended straight into the response buffer, its tag path
// copied from a per-request table of already-escaped paths and its prime
// label written as digits. The bytes are those api.AppendQueryResponse and
// api.AppendStreamChunk write for the same rows materialized as node refs,
// which the in-process API (Store.Query, QueryStream) still builds.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/compact"
	"primelabel/internal/labeling/floatlab"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/xmltree"
)

// materializer turns result rows into node refs or their JSON under the
// caller-held document read lock. A full query uses one per miss; a
// stream keeps one across its chunks.
type materializer struct {
	d *document
	// prime is d.lab when it is a prime labeling, whose labels AppendLabel
	// writes without a string.
	prime *prime.Labeling
	// chain is the last row's parent and its ancestors with their path
	// ids, root first (chain[i] is at depth i). Rows arrive in document
	// order, so the next row usually shares the whole chain and otherwise
	// most of it: only the links it does not share are re-derived.
	chain []chainLink
	// up is scratch for enter.
	up []*xmltree.Node
	// ids interns tag paths by parent path id and tag; paths holds them by
	// id. A document has few distinct tag paths, so each is built and
	// escaped once per materializer. last[d] memoizes the latest lookup at
	// depth d: a row usually has its predecessor's path, or, under a new
	// parent, the path its predecessor's parent had, so most lookups hash
	// nothing.
	ids   map[pathKey]int
	paths []tagPath
	last  []pathMemo
}

type pathMemo struct {
	key pathKey
	id  int
}

type chainLink struct {
	node *xmltree.Node
	path int
}

// pathKey names a tag path by its parent path's id (-1 for the root) and
// its last tag.
type pathKey struct {
	parent int
	name   string
}

// tagPath is an interned tag path, as text and as a JSON string literal.
type tagPath struct {
	raw, quoted string
}

func (d *document) newMaterializer() *materializer {
	m := &materializer{d: d, ids: make(map[pathKey]int)}
	m.prime, _ = d.lab.(*prime.Labeling)
	return m
}

// nodes materializes rows in order; nil for an empty row set.
func (m *materializer) nodes(rows rdb.RowSet) []api.NodeRef {
	if len(rows) == 0 {
		return nil
	}
	out := make([]api.NodeRef, len(rows))
	for i, id := range rows {
		n := m.d.table.Node(id)
		out[i] = api.NodeRef{
			ID:    id,
			Path:  m.paths[m.pathID(n)].raw,
			Label: labelString(m.d.lab, n),
			Text:  n.Text(),
		}
	}
	return out
}

// appendNodes appends rows as the JSON array api.AppendQueryResponse
// writes for nodes(rows).
func (m *materializer) appendNodes(b []byte, rows rdb.RowSet) []byte {
	b = append(b, '[')
	for i, id := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		n := m.d.table.Node(id)
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"path":`...)
		b = append(b, m.paths[m.pathID(n)].quoted...)
		b = m.appendLabel(b, n)
		if t := n.Text(); t != "" {
			b = append(b, `,"text":`...)
			b = api.AppendString(b, t)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendLabel appends n's "label" field, or nothing for an empty label.
// Prime labels are decimal digits, which need no escaping.
func (m *materializer) appendLabel(b []byte, n *xmltree.Node) []byte {
	const field = `,"label":"`
	if m.prime != nil {
		mark := len(b)
		b = m.prime.AppendLabel(append(b, field...), n)
		if len(b) == mark+len(field) {
			return b[:mark]
		}
		return append(b, '"')
	}
	if s := labelString(m.d.lab, n); s != "" {
		b = api.AppendString(append(b, field[:len(field)-1]...), s)
	}
	return b
}

// appendBody appends the nodes-mode /query body for rows, at the
// document's current generation, without its closing "}\n" (see
// closeBody), and returns the offset of the "cached" value.
func (m *materializer) appendBody(b []byte, rows rdb.RowSet, cached bool) ([]byte, int) {
	b = append(b, `{"generation":`...)
	b = strconv.AppendUint(b, m.d.gen, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(rows)), 10)
	b = append(b, `,"cached":`...)
	at := len(b)
	b = strconv.AppendBool(b, cached)
	if len(rows) > 0 {
		b = append(b, `,"nodes":`...)
		b = m.appendNodes(b, rows)
	}
	return b, at
}

// appendChunk appends the NDJSON line of a stream chunk holding rows
// (non-empty), as api.AppendStreamChunk writes it.
func (m *materializer) appendChunk(b []byte, rows rdb.RowSet) []byte {
	b = append(b, `{"nodes":`...)
	b = m.appendNodes(b, rows)
	return append(b, "}\n"...)
}

// closeBody closes a body appendBody opened, with explain as its profile
// when non-nil. On a marshal error b is returned unchanged.
func closeBody(b []byte, explain *api.QueryExplain) ([]byte, error) {
	if explain != nil {
		j, err := json.Marshal(explain)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"explain":`...), j...)
	}
	return append(b, "}\n"...), nil
}

// hitBody copies an open miss body (appendBody with cached false, the
// "cached" value at offset at) into the closed body a cache hit answers
// with: the same bytes with "cached":true and no profile.
func hitBody(open []byte, at int) []byte {
	rest := open[at+len("false"):]
	b := make([]byte, 0, at+len("true")+len(rest)+len("}\n"))
	b = append(b, open[:at]...)
	b = append(b, "true"...)
	b = append(b, rest...)
	return append(b, "}\n"...)
}

// pathID returns the id of xmltree.PathTo(n) through the memo.
func (m *materializer) pathID(n *xmltree.Node) int {
	p := n.Parent
	if p == nil {
		return m.intern(0, -1, n.Name)
	}
	if k := len(m.chain); k == 0 || m.chain[k-1].node != p {
		m.enter(p)
	}
	return m.intern(len(m.chain), m.chain[len(m.chain)-1].path, n.Name)
}

// enter makes p the chain's last link, keeping the links of the ancestors
// it shares with the current chain.
func (m *materializer) enter(p *xmltree.Node) {
	if k := len(m.chain); k >= 2 && m.chain[k-2].node == p.Parent {
		// The common case: p is a sibling of the last link.
		m.chain[k-1] = chainLink{node: p, path: m.intern(k-1, m.chain[k-2].path, p.Name)}
		return
	}
	m.up = m.up[:0]
	for a := p; a != nil; a = a.Parent {
		m.up = append(m.up, a)
	}
	top := len(m.up) - 1 // m.up[top-i] is p's ancestor at depth i
	i := 0
	for i < len(m.chain) && i <= top && m.chain[i].node == m.up[top-i] {
		i++
	}
	m.chain = m.chain[:i]
	for ; i <= top; i++ {
		parent := -1
		if i > 0 {
			parent = m.chain[i-1].path
		}
		a := m.up[top-i]
		m.chain = append(m.chain, chainLink{node: a, path: m.intern(i, parent, a.Name)})
	}
}

// intern returns the id of the path parent + "/" + name (name alone under
// parent -1) for a node at depth, building and escaping it on first use.
func (m *materializer) intern(depth, parent int, name string) int {
	k := pathKey{parent, name}
	for len(m.last) <= depth {
		m.last = append(m.last, pathMemo{key: pathKey{parent: -2}})
	}
	if memo := &m.last[depth]; memo.key.parent == parent && memo.key.name == name {
		return memo.id
	}
	id, ok := m.ids[k]
	if !ok {
		raw := name
		if parent >= 0 {
			raw = m.paths[parent].raw + "/" + name
		}
		id = len(m.paths)
		m.paths = append(m.paths, tagPath{raw: raw, quoted: string(api.AppendString(nil, raw))})
		m.ids[k] = id
	}
	m.last[depth] = pathMemo{k, id}
	return id
}

// labelString renders a node's label in scheme-specific human-readable
// form, mirroring primelabel.Document.Label.
func labelString(lab labeling.Labeling, n *xmltree.Node) string {
	switch l := lab.(type) {
	case *prime.Labeling:
		return l.LabelString(n)
	case *prime.BottomUpLabeling:
		return l.LabelOf(n).String()
	case *prime.DecomposedLabeling:
		parts := []string{}
		for _, e := range l.ChainOf(n) {
			parts = append(parts, e.String())
		}
		return strings.Join(parts, ".")
	case *interval.Labeling:
		a, b, ok := l.Interval(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%d,%d)", a, b)
	case *prefix.Labeling:
		bits, ok := l.BitsOf(n)
		if !ok {
			return ""
		}
		if bits.Len() == 0 {
			return "ε"
		}
		return bits.String()
	case *prefix.DeweyLabeling:
		s, _ := l.DeweyOf(n)
		if s == "" {
			return "ε"
		}
		return s
	case *floatlab.Labeling:
		a, b, ok := l.Interval(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%g,%g)", a, b)
	case *compact.Labeling:
		cl, ok := l.LabelOf(n)
		if !ok {
			return ""
		}
		return fmt.Sprintf("(%d,%d)", cl.Start, cl.End)
	default:
		return fmt.Sprintf("<%d bits>", lab.LabelBits(n))
	}
}
