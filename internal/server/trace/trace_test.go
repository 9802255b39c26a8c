package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpansAndFinish(t *testing.T) {
	tr := New("abc", "query")
	tr.SetDoc("books")
	end := tr.StartSpan(StageXPathEval)
	time.Sleep(time.Millisecond)
	end()
	tr.Finish(200)
	tr.Finish(500) // idempotent: first call wins

	if tr.Status() != 200 {
		t.Fatalf("status = %d", tr.Status())
	}
	if tr.Doc() != "books" {
		t.Fatalf("doc = %q", tr.Doc())
	}
	if tr.Duration() <= 0 {
		t.Fatal("duration not recorded")
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Stage != StageXPathEval {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Duration < time.Millisecond {
		t.Fatalf("span duration = %v, want >= 1ms", spans[0].Duration)
	}
	j := tr.JSON()
	if j.ID != "abc" || j.Endpoint != "query" || j.Status != 200 || len(j.Spans) != 1 {
		t.Fatalf("JSON = %+v", j)
	}
	if j.Spans[0].DurationMS < 1 {
		t.Fatalf("span ms = %g", j.Spans[0].DurationMS)
	}
}

// TestSpansAfterFinishDropped checks that a span ending after Finish, by
// either StartSpan or Observe, does not reach the sealed trace.
func TestSpansAfterFinishDropped(t *testing.T) {
	tr := New("abc", "query")
	ctx := NewContext(context.Background(), tr)
	tr.StartSpan(StageDecode)()
	late := tr.StartSpan(StageLockWait)
	tr.Finish(503)
	late()
	Start(ctx, StageXPathEval)()
	Observe(ctx, StageQueryFanout, time.Millisecond)
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Stage != StageDecode {
		t.Fatalf("spans = %+v, want only the decode span recorded before Finish", spans)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.SetDoc("x")
	tr.StartSpan(StageLockWait)() // must not panic
	tr.Finish(200)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace spans = %v", got)
	}
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carries a trace")
	}
	Start(ctx, StageXPathEval)() // no-op end func
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(GenID(), "update")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context round trip lost the trace")
	}
	end := Start(ctx, StageRelabel)
	end()
	if len(tr.Spans()) != 1 {
		t.Fatalf("spans = %+v", tr.Spans())
	}
}

func TestGenID(t *testing.T) {
	a, b := GenID(), GenID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("id lengths %d, %d", len(a), len(b))
	}
	if a == b {
		t.Fatal("two generated ids collide")
	}
}

func TestRingOverwriteAndSnapshot(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		tr := New(GenID(), "query")
		tr.Finish(200)
		r.Add(tr)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.After(snap[i-1].Start) {
			t.Fatal("snapshot not newest-first")
		}
	}
}

func TestRingDisabledAndConcurrent(t *testing.T) {
	var disabled *Ring = NewRing(0)
	disabled.Add(New("x", "query")) // no-op, no panic
	if disabled.Len() != 0 || disabled.Snapshot() != nil {
		t.Fatal("disabled ring not empty")
	}

	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := New(GenID(), "query")
				tr.StartSpan(StageXPathEval)()
				tr.Finish(200)
				r.Add(tr)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("len = %d, want 8", r.Len())
	}
}
