package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzQueryResponseEncoding holds the append encoders to encoding/json byte
// for byte over every response shape a query endpoint writes: full node
// lists, count and exists answers, explain profiles, and stream chunks.
// The strings are arbitrary bytes, so escaping (HTML characters, control
// bytes, invalid UTF-8, U+2028/U+2029) is covered with them.
func FuzzQueryResponseEncoding(f *testing.F) {
	f.Add("plays/play/act", "2310", "To be, or not", 7, uint64(3), byte(0))
	f.Add("a<b>&c", "<>&", "x & y < z > w", 0, uint64(0), byte(1))
	f.Add("\b\f\n\r\t", "\x00\x01\x1f\x7f", "tab\there\fform\bback", 1, uint64(1), byte(2))
	f.Add("\xff\xfe", "ok\xc3", "\xe2\x80\xa8\xe2\x80\xa9", 2, uint64(1<<63), byte(3))
	f.Add("\"quoted\"", "back\\slash", "\u2028line\u2029para", -5, uint64(42), byte(4))
	f.Add("", "", "", 12, uint64(9), byte(5))
	f.Add("caf\u00e9/\U0001F600", "", "\xed\xa0\x80 surrogate", 3, uint64(2), byte(6))
	f.Add("p", "1", "t", 4, uint64(5), byte(7))
	f.Fuzz(func(t *testing.T, path, label, text string, id int, gen uint64, shape byte) {
		nodes := []NodeRef{
			{ID: id, Path: path, Label: label, Text: text},
			{ID: id + 1, Path: text, Label: path},
			{ID: -id, Path: label, Text: label},
		}[:int(shape)%4]
		var explain *QueryExplain
		if shape&4 != 0 {
			explain = &QueryExplain{
				Shape: path, Backend: label, Candidates: id, MaxLabelBits: len(label),
				Steps:  []ExplainStep{{Axis: path, Name: text, Pos: id, JoinPlan: label}},
				Stages: []ExplainStage{{Stage: text, DurationMS: float64(id) / 7}},
			}
		}
		resp := QueryResponse{Generation: gen, Count: id, Cached: shape&8 != 0, Nodes: nodes, Explain: explain}
		if shape&16 != 0 {
			exists := id > 0
			resp.Nodes, resp.Exists = nil, &exists
		}
		got, err := AppendQueryResponse([]byte("prefix"), &resp)
		if err != nil {
			t.Fatal(err)
		}
		assertEncoding(t, &resp, got)

		chunk := StreamChunk{Nodes: nodes, Done: shape&32 != 0, Explain: explain}
		got, err = AppendStreamChunk([]byte("prefix"), &chunk)
		if err != nil {
			t.Fatal(err)
		}
		assertEncoding(t, &chunk, got)
	})
}

// assertEncoding compares got, which carries a "prefix" the encoder must
// have kept, with encoding/json's Encoder output for v.
func assertEncoding(t *testing.T, v any, got []byte) {
	t.Helper()
	var want bytes.Buffer
	want.WriteString("prefix")
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("append encoder diverged from encoding/json:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestAppendExplainMarshalError pins the error contract: a profile
// encoding/json rejects (a NaN timing) fails the append and leaves the
// buffer as it was, so the handler can still answer with a clean error.
func TestAppendExplainMarshalError(t *testing.T) {
	explain := &QueryExplain{Stages: []ExplainStage{{Stage: "encode", DurationMS: math.NaN()}}}
	dst := []byte("kept")
	if got, err := AppendQueryResponse(dst, &QueryResponse{Explain: explain}); err == nil || string(got) != "kept" {
		t.Fatalf("AppendQueryResponse = %q, %v; want the buffer unchanged and an error", got, err)
	}
	if got, err := AppendStreamChunk(dst, &StreamChunk{Done: true, Explain: explain}); err == nil || string(got) != "kept" {
		t.Fatalf("AppendStreamChunk = %q, %v; want the buffer unchanged and an error", got, err)
	}
}
