package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"primelabel/internal/datasets"
	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
	"primelabel/internal/server/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output from
// a live server.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startTracedServer boots a durable server with the given extra config and
// returns it plus a client.
func startTracedServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, client.New("http://"+addr, nil)
}

// TestTraceEndToEnd drives a durable server through the Go client with a
// caller-set trace ID and asserts the full observability contract: the ID
// is echoed, the trace lands in /debug/traces, and an update's trace shows
// the stages of every layer it crossed — including the journal fsync.
func TestTraceEndToEnd(t *testing.T) {
	_, c := startTracedServer(t, Config{
		RequestTimeout: 30 * time.Second,
		DataDir:        t.TempDir(),
	})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}

	const id = "trace-test-42"
	if _, err := c.WithTraceID(id).Update("books", api.UpdateRequest{
		Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book",
	}); err != nil {
		t.Fatal(err)
	}

	dump, err := c.Traces("update", "books", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got *trace.TraceJSON
	for i := range dump.Traces {
		if dump.Traces[i].ID == id {
			got = &dump.Traces[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("trace %q not in /debug/traces dump: %+v", id, dump)
	}
	if got.Endpoint != "update" || got.Doc != "books" || got.Status != http.StatusOK {
		t.Errorf("trace header wrong: %+v", got)
	}
	stages := map[string]bool{}
	for _, sp := range got.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{
		trace.StageLockWait, trace.StageRelabel, trace.StageReindex,
		trace.StageJournalAppend, trace.StageJournalFsync,
	} {
		if !stages[want] {
			t.Errorf("update trace missing stage %q; have %v", want, stages)
		}
	}
	if len(stages) < 4 {
		t.Errorf("want >= 4 distinct stages, have %d: %v", len(stages), stages)
	}

	// The ring also captured the load; filters must narrow correctly.
	loads, err := c.Traces("load", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loads.Count == 0 {
		t.Error("load trace missing from ring")
	}
	for _, tr := range loads.Traces {
		if tr.Endpoint != "load" {
			t.Errorf("endpoint filter leaked %q", tr.Endpoint)
		}
	}
	none, err := c.Traces("", "", time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if none.Count != 0 {
		t.Errorf("min=1h filter returned %d traces", none.Count)
	}

	// Stage histograms on /metrics saw the spans.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `labeld_stage_duration_seconds_count{stage="journal_fsync"} 1`) {
		t.Errorf("journal_fsync stage histogram not populated:\n%s", grepLines(metrics, "stage_duration"))
	}
}

// TestTraceIDGeneratedAndEchoed checks the server generates an ID when the
// caller sends none (or garbage) and always echoes one, and echoes a sane
// caller-supplied ID verbatim.
func TestTraceIDGeneratedAndEchoed(t *testing.T) {
	srv, _ := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	addr := srv.Addr()
	hc := &http.Client{Timeout: 10 * time.Second}

	get := func(sent string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set(api.TraceIDHeader, sent)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get(api.TraceIDHeader)
	}

	for _, sent := range []string{"", strings.Repeat("x", trace.MaxIDLen+1)} {
		if got := get(sent); got == "" || got == sent {
			t.Errorf("sent %q: echoed ID %q, want a generated one", sent, got)
		}
	}
	if got := get("caller-set-id"); got != "caller-set-id" {
		t.Errorf("sane caller ID not echoed verbatim: %q", got)
	}

	// Go's HTTP client refuses to send control characters, so exercise the
	// sanitizer directly for that case.
	req, err := http.NewRequest(http.MethodGet, "http://example/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header[api.TraceIDHeader] = []string{"bad\x01id"}
	if got := requestTraceID(req); got == "bad\x01id" || got == "" {
		t.Errorf("control-char ID accepted: %q", got)
	}
}

// TestSlowRequestLogging forces every request over the slow threshold and
// asserts the structured warn record fires with the trace ID and spans.
func TestSlowRequestLogging(t *testing.T) {
	buf := &syncBuffer{}
	_, c := startTracedServer(t, Config{
		RequestTimeout: 30 * time.Second,
		SlowRequest:    time.Nanosecond, // everything is slow
		Logger:         slog.New(slog.NewJSONHandler(buf, nil)),
	})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	const id = "slow-trace-1"
	if _, err := c.WithTraceID(id).Query("books", "//book"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Fatalf("no slow request record:\n%s", out)
	}
	if !strings.Contains(out, id) {
		t.Errorf("slow request record missing trace id %q:\n%s", id, out)
	}
	if !strings.Contains(out, trace.StageXPathEval) {
		t.Errorf("slow request record missing span breakdown:\n%s", out)
	}
}

// TestTraceBufferDisabled checks negative TraceBuffer keeps /debug/traces
// empty while requests still carry IDs.
func TestTraceBufferDisabled(t *testing.T) {
	_, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second, TraceBuffer: -1})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	dump, err := c.Traces("", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Count != 0 {
		t.Errorf("disabled ring returned %d traces", dump.Count)
	}
}

// TestDebugListener checks -debug-addr serves pprof, traces and metrics on
// its own listener.
func TestDebugListener(t *testing.T) {
	srv, c := startTracedServer(t, Config{
		RequestTimeout: 30 * time.Second,
		DebugAddr:      "127.0.0.1:0",
	})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	addr := srv.DebugAddr()
	if addr == "" {
		t.Fatal("debug listener not bound")
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{"/debug/pprof/", "/debug/traces", "/metrics"} {
		resp, err := hc.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// grepLines returns the lines of s containing substr (test failure aid).
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestQueryTraceMaterializeEncode pins the read path's stage coverage: a
// cache miss records one encode span (rows turned into the body's node
// objects in one pass) and no materialize span, and hits record no encode
// (they answer with the entry's bytes). Every request records one decode
// and one write span.
func TestQueryTraceMaterializeEncode(t *testing.T) {
	_, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id     string
		cached bool
		encode int
	}{{"query-miss", false, 1}, {"query-hit", true, 0}, {"query-hit-again", true, 0}} {
		resp, err := c.WithTraceID(tc.id).Query("books", "//book")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != tc.cached {
			t.Fatalf("%s: cached = %v", tc.id, resp.Cached)
		}
		dump, err := c.Traces("query", "books", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		stages := map[string]int{}
		for _, tr := range dump.Traces {
			if tr.ID == tc.id {
				for _, sp := range tr.Spans {
					stages[sp.Stage]++
				}
			}
		}
		if stages[trace.StageEncode] != tc.encode {
			t.Errorf("%s: %d encode spans, want %d; have %v", tc.id, stages[trace.StageEncode], tc.encode, stages)
		}
		if stages[trace.StageDecode] != 1 || stages[trace.StageWrite] != 1 {
			t.Errorf("%s: want one decode and one write span; have %v", tc.id, stages)
		}
		if stages["materialize"] != 0 {
			t.Errorf("%s: materialize span recorded; have %v", tc.id, stages)
		}
	}
}

// spanCoverage is the fraction of a trace's duration its spans cover,
// counting the union of their intervals (spans nest: stream_first_byte
// contains lock_wait and xpath_eval).
func spanCoverage(tr trace.TraceJSON) float64 {
	spans := append([]trace.SpanJSON(nil), tr.Spans...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].OffsetMS < spans[b].OffsetMS })
	covered, end := 0.0, 0.0
	for _, sp := range spans {
		lo, hi := max(sp.OffsetMS, end), sp.OffsetMS+sp.DurationMS
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return covered / tr.DurationMS
}

// TestQueryStageCoverage checks that the read path's spans account for
// its time: on the 20k-element play corpus, a /query miss, a /query hit
// and a /query/stream of //play//line each have at least 90% of their
// trace's duration under some span. A gap means a stage does work no span
// names. The uncovered rest is mostly goroutine scheduling, which a busy
// test machine stretches, so each kind gets the best of five requests (a
// miss a fresh cache key each time: leading spaces parse away).
func TestQueryStageCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 20k-element corpus")
	}
	_, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	xml := datasets.PlayCorpus(1, 20000).String()
	if _, err := c.Load("plays", api.LoadRequest{XML: xml, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	const q = "//play//line"
	if _, err := c.Query("plays", q); err != nil { // the hits' entry
		t.Fatal(err)
	}
	for _, kind := range []string{"query-miss", "query-hit", "stream"} {
		best, spans := 0.0, []trace.SpanJSON(nil)
		for i := 1; i <= 5 && best < 0.9; i++ {
			id := fmt.Sprintf("%s-%d", kind, i)
			tc := c.WithTraceID(id)
			var err error
			switch kind {
			case "query-miss":
				_, err = tc.Query("plays", strings.Repeat(" ", i)+q)
			case "query-hit":
				_, err = tc.Query("plays", q)
			case "stream":
				_, err = tc.QueryStream("plays", q, func(api.StreamChunk) error { return nil })
			}
			if err != nil {
				t.Fatal(err)
			}
			dump, err := c.TracesByID(id)
			if err != nil || len(dump.Traces) != 1 {
				t.Fatalf("%s: %d traces, %v", id, len(dump.Traces), err)
			}
			if cov := spanCoverage(dump.Traces[0]); cov > best {
				best, spans = cov, dump.Traces[0].Spans
			}
		}
		if best < 0.9 {
			t.Errorf("%s: spans cover at best %.1f%% of a request; spans %+v", kind, 100*best, spans)
		}
	}
}
