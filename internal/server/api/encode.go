package api

// Append-based JSON encoding for the query result types. A full query
// response is mostly an array of NodeRefs, and encoding it by reflection
// costs more than materializing it; these encoders write the same bytes
// encoding/json's Encoder would (HTML-safe escaping, the trailing newline)
// straight into a caller-owned buffer. FuzzQueryResponseEncoding holds them
// to encoding/json byte for byte.

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendQueryResponse appends the JSON encoding of r to dst, byte-identical
// to json.NewEncoder(w).Encode(r) including the trailing newline. The only
// error is a failure to marshal r.Explain, in which case dst is returned
// unchanged. Safe for concurrent use on distinct buffers.
func AppendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	var explain []byte
	if r.Explain != nil {
		var err error
		if explain, err = json.Marshal(r.Explain); err != nil {
			return dst, err
		}
	}
	b := slices.Grow(dst, 64+nodesSize(r.Nodes)+len(explain))
	b = append(b, `{"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	if len(r.Nodes) > 0 {
		b = append(b, `,"nodes":`...)
		b = appendNodes(b, r.Nodes)
	}
	if r.Exists != nil {
		b = append(b, `,"exists":`...)
		b = strconv.AppendBool(b, *r.Exists)
	}
	if explain != nil {
		b = append(b, `,"explain":`...)
		b = append(b, explain...)
	}
	return append(b, "}\n"...), nil
}

// AppendStreamChunk appends the JSON encoding of c to dst, byte-identical
// to json.NewEncoder(w).Encode(c) including the trailing newline. Errors
// and concurrency are as for AppendQueryResponse.
func AppendStreamChunk(dst []byte, c *StreamChunk) ([]byte, error) {
	var explain []byte
	if c.Explain != nil {
		var err error
		if explain, err = json.Marshal(c.Explain); err != nil {
			return dst, err
		}
	}
	b := slices.Grow(dst, 32+nodesSize(c.Nodes)+len(explain))
	b = append(b, '{')
	if len(c.Nodes) > 0 {
		b = append(b, `"nodes":`...)
		b = appendNodes(b, c.Nodes)
	}
	if c.Done {
		b = append(fieldSep(b), `"done":true`...)
	}
	if explain != nil {
		b = append(fieldSep(b), `"explain":`...)
		b = append(b, explain...)
	}
	return append(b, "}\n"...), nil
}

// fieldSep appends the comma before an object field unless the field is
// the object's first.
func fieldSep(b []byte) []byte {
	if b[len(b)-1] == '{' {
		return b
	}
	return append(b, ',')
}

// nodesSize estimates the encoded size of nodes (exact unless strings need
// escaping), so a body grows its buffer once.
func nodesSize(nodes []NodeRef) int {
	n := 2
	for i := range nodes {
		n += 48 + len(nodes[i].Path) + len(nodes[i].Label) + len(nodes[i].Text)
	}
	return n
}

func appendNodes(b []byte, nodes []NodeRef) []byte {
	b = append(b, '[')
	for i := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		n := &nodes[i]
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(n.ID), 10)
		b = append(b, `,"path":`...)
		b = AppendString(b, n.Path)
		if n.Label != "" {
			b = append(b, `,"label":`...)
			b = AppendString(b, n.Label)
		}
		if n.Text != "" {
			b = append(b, `,"text":`...)
			b = AppendString(b, n.Text)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// HTML-safe escaping: printable characters other than ", \\, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\\<>&`, rune(c))
	}
	return t
}()

// AppendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as six-byte \u00XX escapes, like every other
// control byte except \b, \f, \n, \r and \t, which get two-byte escapes;
// invalid UTF-8 as \ufffd; and U+2028 and U+2029 escaped for JSONP safety.
// Exported for encoders that write NodeRef fields without building a
// NodeRef. Safe for concurrent use on distinct buffers.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
