package server

import (
	"context"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"primelabel/internal/server/api"
)

// TestRequestTimeout pins the Config.RequestTimeout contract on /query,
// which keeps the deadline itself, and on /relation, which runs behind
// http.TimeoutHandler. The test holds the document's write lock so the
// request cannot finish, then checks that:
//   - the client gets 503 with exactly timeoutBody at the deadline;
//   - labeld_requests_total, the error counter, the trace ring and the
//     slow-request log all record that 503, not the held handler's status;
//   - the held request runs to completion once the lock is released and
//     leaves no goroutine behind, adding no span to its sealed trace.
func TestRequestTimeout(t *testing.T) {
	const hold = 400 * time.Millisecond
	for _, tc := range []struct {
		endpoint, path, body string
		finished             func(*Server, *document) bool
	}{
		{
			endpoint: "query", path: "/docs/books/query", body: `{"xpath":"//book"}`,
			// The query stored its result once it got the lock.
			finished: func(_ *Server, d *document) bool { return d.cache.len() == 1 },
		},
		{
			endpoint: "relation", path: "/docs/books/relation", body: `{"kind":"ancestor","a":1,"b":2}`,
			finished: func(s *Server, _ *document) bool { return s.metrics.probeBase.Count() == 1 },
		},
	} {
		t.Run(tc.endpoint, func(t *testing.T) {
			logs := &syncBuffer{}
			srv, err := New(Config{
				RequestTimeout: 50 * time.Millisecond,
				SlowRequest:    40 * time.Millisecond,
				Logger:         slog.New(slog.NewTextHandler(logs, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Store().Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			if _, err := srv.Store().Load(context.Background(), "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
				t.Fatal(err)
			}
			d, err := srv.store.get("books")
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()

			d.mu.Lock()
			start := time.Now()
			resp, err := hc.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				d.mu.Unlock()
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			answered := time.Since(start)
			time.Sleep(hold - answered)
			if tc.finished(srv, d) {
				t.Error("request finished while the lock was held")
			}
			d.mu.Unlock()

			if resp.StatusCode != http.StatusServiceUnavailable || string(body) != timeoutBody {
				t.Fatalf("answer = %d %q, want 503 %q", resp.StatusCode, body, timeoutBody)
			}
			if answered >= hold {
				t.Fatalf("503 took %v, not answered at the 50ms deadline", answered)
			}
			es := srv.metrics.endpoints[tc.endpoint]
			if n, e := es.requests.Load(), es.errors.Load(); n != 1 || e != 1 {
				t.Errorf("labeld_requests_total = %d, errors = %d; want 1, 1", n, e)
			}
			traces := srv.traces.Snapshot()
			if len(traces) != 1 || traces[0].Endpoint != tc.endpoint || traces[0].Status() != http.StatusServiceUnavailable {
				t.Fatalf("traces = %d, want one %s trace with status 503", len(traces), tc.endpoint)
			}
			if dur := traces[0].Duration(); dur >= hold {
				t.Errorf("trace duration %v includes the held handler's run time", dur)
			}
			sealed := len(traces[0].Spans())
			if log := logs.String(); !strings.Contains(log, "slow request") || !strings.Contains(log, "status=503") {
				t.Errorf("slow-request log does not record the 503:\n%s", log)
			}

			deadline := time.Now().Add(10 * time.Second)
			for !tc.finished(srv, d) || runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("held request did not finish cleanly: finished = %v, goroutines %d > %d",
						tc.finished(srv, d), runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := len(traces[0].Spans()); n != sealed {
				t.Errorf("held request added %d spans to its sealed trace", n-sealed)
			}
		})
	}
}

// TestQueryWorkerPanic checks that a panic in /query's worker goroutine is
// re-raised on the handler goroutine, where net/http recovers it and drops
// the connection; a panic left on the worker would crash the process.
func TestQueryWorkerPanic(t *testing.T) {
	srv, err := New(Config{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Store().Close()
	srv.store = nil // every store call now panics
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/docs/books/query", "application/json", strings.NewReader(`{"xpath":"//book"}`))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("got %d, want the connection dropped", resp.StatusCode)
	}
}
