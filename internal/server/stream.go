package server

// Materialization-skipping query terminals: count/exists modes that never
// build node refs, and chunked NDJSON streaming that delivers the first
// bytes before materialization starts. Both share Store.query's locking,
// caching, freeze-routing and accounting contracts — only the terminal
// differs, which is the point: on a 12k-row result the node-ref loop
// (paths, labels, text) dominates evaluation, so skipping or chunking it
// is where the latency goes.

import (
	"context"
	"fmt"
	"time"

	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/server/querystats"
	"primelabel/internal/server/trace"
)

// countCacheKey is the query-cache slot for a query's materialization-free
// answer. The "\x00" prefix cannot collide with a cacheable query: a query
// starting with NUL fails the parser, so no full result is ever stored
// under it.
func countCacheKey(query string) string { return "\x00c:" + query }

// streamChunkSize is the node count per streamed NDJSON chunk. Small enough
// that the first chunk leaves long before a 12k-row materialization would
// finish, large enough that encoder and flush overhead stay negligible.
const streamChunkSize = 256

// QueryMode evaluates a query under the requested terminal mode: nodes (the
// empty mode) behaves exactly like Query/QueryExplain, count and exists
// skip node materialization entirely.
func (s *Store) QueryMode(ctx context.Context, name, query, mode string, explain bool) (*api.QueryResponse, error) {
	resp, hit, err := s.queryMode(ctx, name, query, mode, explain)
	if hit != nil {
		return hit.hitResponse(), nil
	}
	return resp, err
}

// queryMode is QueryMode, except that a nodes-mode cache hit without
// explain returns its cache entry instead of a response (see query).
func (s *Store) queryMode(ctx context.Context, name, query, mode string, explain bool) (*api.QueryResponse, *cacheEntry, error) {
	switch mode {
	case api.QueryModeNodes:
		return s.query(ctx, name, query, explain)
	case api.QueryModeCount, api.QueryModeExists:
		resp, err := s.queryFast(ctx, name, query, mode, explain)
		return resp, nil, err
	default:
		return nil, nil, fmt.Errorf("%w: unknown query mode %q", ErrBadRequest, mode)
	}
}

// modeResponse shapes a count/exists answer: never any nodes.
func modeResponse(gen uint64, count int, mode string) *api.QueryResponse {
	resp := &api.QueryResponse{Generation: gen, Count: count}
	if mode == api.QueryModeExists {
		exists := count > 0
		resp.Exists = &exists
	}
	return resp
}

// queryFast is the count/exists terminal. It answers from the full cache
// entry when one exists, else from the dedicated count slot, and on a miss
// evaluates rows without ever building a NodeRef. The count slot is filled
// on miss, so repeated count() polling of a large result costs one
// evaluation per generation and zero materializations ever.
func (s *Store) queryFast(ctx context.Context, name, query, mode string, explain bool) (*api.QueryResponse, error) {
	if query == "" {
		return nil, fmt.Errorf("%w: empty xpath", ErrBadRequest)
	}
	d, err := s.get(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s.metrics.queries.Add(1)
	s.metrics.queryCountMode.Add(1)
	d.noteRead()
	defer s.maybeFreeze(d)
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	defer d.mu.RUnlock()
	endCache := trace.Start(ctx, trace.StageCacheLookup)
	cached, ok := d.cache.get(query, d.gen)
	if !ok {
		cached, ok = d.cache.get(countCacheKey(query), d.gen)
	}
	endCache()
	frozenServe := d.frozen != nil && d.frozenOrder
	if ok {
		s.metrics.cacheHits.Add(1)
		resp := modeResponse(d.gen, cached.resp.Count, mode)
		resp.Cached = true
		if explain {
			resp.Explain = &api.QueryExplain{
				Shape:    s.querystats.ShapeOf(query),
				CacheHit: true,
				Backend:  d.backendName(frozenServe),
				Stages:   explainStages(ctx),
			}
		}
		s.querystats.Record(querystats.Sample{
			Doc: name, Query: query, Latency: time.Since(start),
			CacheHit: true, Frozen: frozenServe,
		})
		return resp, nil
	}
	s.metrics.cacheMisses.Add(1)
	table := d.table
	if frozenServe {
		table = d.frozenTable
	}
	var ex *rdb.Explain
	if explain {
		ex = &rdb.Explain{}
	}
	endEval := trace.Start(ctx, trace.StageXPathEval)
	rows, stats, err := table.ExecPathStringExplain(query, ex)
	endEval()
	trace.Observe(ctx, trace.StageQueryFanout, stats.FanOutTime)
	if stats.FanOuts > 0 {
		s.metrics.queryFanOuts.Add(uint64(stats.FanOuts))
		s.metrics.queryShards.Add(uint64(stats.Shards))
	}
	if err != nil {
		s.querystats.Record(querystats.Sample{
			Doc: name, Query: query, Latency: time.Since(start),
			Frozen: frozenServe, Err: true,
		})
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	d.cache.put(countCacheKey(query), d.gen, &api.QueryResponse{Generation: d.gen, Count: len(rows)})
	profile := d.queryProfile(s, query, stats, frozenServe)
	if explain {
		profile.Steps = explainSteps(ex)
		profile.Stages = explainStages(ctx)
	}
	s.querystats.Record(querystats.Sample{
		Doc: name, Query: query, Latency: time.Since(start),
		Candidates: stats.Candidates, Frozen: frozenServe, Profile: profile,
	})
	resp := modeResponse(d.gen, len(rows), mode)
	if explain {
		resp.Explain = profile
	}
	return resp, nil
}

// queryProfile builds the planner-summary half of a query profile (the part
// every cache miss records into query stats, explain or not). Called under
// the document lock.
func (d *document) queryProfile(s *Store, query string, stats rdb.ExecStats, frozenServe bool) *api.QueryExplain {
	profile := &api.QueryExplain{
		Shape:      s.querystats.ShapeOf(query),
		Backend:    d.backendName(frozenServe),
		Parallel:   stats.FanOuts > 0,
		Shards:     stats.Shards,
		Candidates: stats.Candidates,
	}
	if frozenServe {
		profile.MaxLabelBits = d.frozen.MaxLabelBits()
	} else {
		profile.MaxLabelBits = d.lab.MaxLabelBits()
	}
	return profile
}

// QueryStream evaluates a query and delivers the result through emit: first
// an api.StreamHeader (generation and total count, before any node ref
// exists), then api.StreamChunk batches of streamChunkSize nodes
// materialized on demand, then a final chunk with Done set (carrying the
// execution profile when explain is set). The document's read lock is held
// for the whole delivery — the same window a materialize-everything query
// holds it, since both walk the tree for paths and text; a slow consumer
// extends it, which is the streaming trade-off.
//
// An error before the first emit call is returned with nothing emitted
// (callers can still write a clean HTTP error); once emit has been called
// the stream is committed and a later error only aborts it. The trace's
// stream_first_byte span covers entry to just after the header emit, and
// stream_write the materialize-and-emit loop after it.
func (s *Store) QueryStream(ctx context.Context, name, query string, explain bool, emit func(v any) error) error {
	endFirst := trace.Start(ctx, trace.StageStreamFirstByte)
	firstEnded := false
	finishFirst := func() {
		if !firstEnded {
			firstEnded = true
			endFirst()
		}
	}
	defer finishFirst()
	if query == "" {
		return fmt.Errorf("%w: empty xpath", ErrBadRequest)
	}
	d, err := s.get(name)
	if err != nil {
		return err
	}
	start := time.Now()
	s.metrics.queries.Add(1)
	s.metrics.queryStreamed.Add(1)
	d.noteRead()
	defer s.maybeFreeze(d)
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	defer d.mu.RUnlock()
	endCache := trace.Start(ctx, trace.StageCacheLookup)
	cached, hit := d.cache.get(query, d.gen)
	endCache()
	frozenServe := d.frozen != nil && d.frozenOrder

	var rows rdb.RowSet
	var stats rdb.ExecStats
	var ex *rdb.Explain
	if hit {
		s.metrics.cacheHits.Add(1)
	} else {
		s.metrics.cacheMisses.Add(1)
		table := d.table
		if frozenServe {
			table = d.frozenTable
		}
		if explain {
			ex = &rdb.Explain{}
		}
		endEval := trace.Start(ctx, trace.StageXPathEval)
		rows, stats, err = table.ExecPathStringExplain(query, ex)
		endEval()
		trace.Observe(ctx, trace.StageQueryFanout, stats.FanOutTime)
		if stats.FanOuts > 0 {
			s.metrics.queryFanOuts.Add(uint64(stats.FanOuts))
			s.metrics.queryShards.Add(uint64(stats.Shards))
		}
		if err != nil {
			s.querystats.Record(querystats.Sample{
				Doc: name, Query: query, Latency: time.Since(start),
				Frozen: frozenServe, Err: true,
			})
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	count := len(rows)
	if hit {
		count = cached.resp.Count
	}
	if err := emit(api.StreamHeader{Generation: d.gen, Count: count, Cached: hit}); err != nil {
		return err
	}
	finishFirst()

	endWrite := trace.Start(ctx, trace.StageStreamWrite)
	mat := d.newMaterializer()
	for base := 0; base < count; base += streamChunkSize {
		end := base + streamChunkSize
		if end > count {
			end = count
		}
		var nodes []api.NodeRef
		if hit {
			nodes = cached.resp.Nodes[base:end]
		} else {
			nodes = mat.nodes(rows[base:end])
		}
		if err := emit(api.StreamChunk{Nodes: nodes}); err != nil {
			endWrite()
			return err
		}
	}
	endWrite()

	final := api.StreamChunk{Done: true}
	sample := querystats.Sample{
		Doc: name, Query: query, Latency: time.Since(start),
		CacheHit: hit, Frozen: frozenServe,
	}
	if !hit {
		profile := d.queryProfile(s, query, stats, frozenServe)
		profile.Streamed = true
		if explain {
			profile.Steps = explainSteps(ex)
			profile.Stages = explainStages(ctx)
		}
		sample.Candidates = stats.Candidates
		sample.Profile = profile
		if explain {
			final.Explain = profile
		}
	} else if explain {
		final.Explain = &api.QueryExplain{
			Shape:    s.querystats.ShapeOf(query),
			CacheHit: true,
			Backend:  d.backendName(frozenServe),
			Streamed: true,
			Stages:   explainStages(ctx),
		}
	}
	s.querystats.Record(sample)
	return emit(final)
}
