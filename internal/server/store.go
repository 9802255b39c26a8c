// Package server implements labeld, the concurrent label-query service: a
// registry of labeled XML documents exposed over HTTP/JSON. It is the
// long-lived store the paper's Section 5.2 experiment presumes — labels live
// in a table, path queries are answered by label-predicate joins — turned
// into a network service that also absorbs the paper's dynamic updates
// (insert, wrap, delete) online and reports their relabeling cost.
//
// Concurrency model: each document carries its own sync.RWMutex. Queries
// and relation probes take the read lock — they are genuinely read-only,
// because every lazily built cache in the underlying packages is
// pre-materialized (rdb.Table.Warm, the prime scheme's eager self-label
// cache) — so any number of readers proceed in parallel. Updates take the
// write lock, mutate the labeling, rebuild the element table and bump the
// document's generation; cached query results are tagged with the
// generation they were computed at, so a bump invalidates them lazily
// without sweeping the cache. The registry map has its own lock, held only
// for lookups and load/delete, never during query evaluation.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/codec"
	"primelabel/internal/labeling/compact"
	"primelabel/internal/labeling/floatlab"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/parallel"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/querystats"
	"primelabel/internal/server/trace"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// Errors the store maps to HTTP statuses.
var (
	// ErrUnknownDocument: no document with that name is loaded (404).
	ErrUnknownDocument = errors.New("server: unknown document")
	// ErrStaleGeneration: a conditional request named a generation the
	// document has moved past (409).
	ErrStaleGeneration = errors.New("server: stale generation")
	// ErrBadRequest wraps client-side validation failures (400).
	ErrBadRequest = errors.New("server: bad request")
)

// document is one hosted labeled document.
type document struct {
	mu      sync.RWMutex
	name    string
	planner string
	lab     labeling.Labeling
	table   *rdb.Table
	cache   *queryCache
	gen     uint64
	// relabeled accumulates the labels written by every update applied to
	// this document — the paper's Figures 16–18 metric, observed online.
	relabeled uint64
	// fenceEpoch is the document's fencing epoch: bumped by every promotion
	// of this server (and adopted from replicated records), stamped onto
	// every journaled record, and persisted in snapshot meta. Followers use
	// it to reject streams from a deposed primary that resurrected with
	// stale state. Guarded by mu like gen.
	fenceEpoch uint64

	// journal is the document's update journal when persistence is enabled
	// and the scheme is persistable; nil otherwise. Appends happen inside
	// the write-lock critical section, which orders records consistently
	// with in-memory state.
	journal *persist.Journal
	// durable reports whether updates to this document are journaled.
	durable bool
	// sinceSnap counts journal records since the last snapshot; compaction
	// triggers when it reaches the store's snapshotEvery threshold.
	sinceSnap int
	// compacting serializes background snapshot compactions.
	compacting atomic.Bool

	// noPatch forces the full-rebuild reindex path even for ops the
	// incremental patch path could handle. Benchmark/test-only: set before
	// the document serves traffic, never flipped at runtime.
	noPatch bool

	// Frozen-overlay state (see freeze.go). frozen and frozenTable are the
	// compact re-label of the current tree plus its own warmed element
	// table; both nil while the document serves from its base scheme, both
	// guarded by mu like lab and table. frozenOrder mirrors the base
	// scheme's document-order support so a frozen Before answers (or
	// refuses) exactly as the base scheme would.
	frozen      *compact.Labeling
	frozenTable *rdb.Table
	frozenOrder bool
	// isFrozen mirrors frozen != nil for lock-free policy checks; freezing
	// serializes overlay builds; lastWrite (unix nanos) and readsSinceWrite
	// feed the freeze policy.
	isFrozen        atomic.Bool
	freezing        atomic.Bool
	lastWrite       atomic.Int64
	readsSinceWrite atomic.Uint64
}

// Store is the document registry.
type Store struct {
	mu      sync.RWMutex
	docs    map[string]*document
	metrics *Metrics
	// logger receives structured records for store-level events that are
	// not tied to a request's response (journal failures, compaction
	// errors). Never nil; defaults to a discarding logger.
	logger *slog.Logger
	// cacheCap is the per-document query cache capacity.
	cacheCap int
	// persist, when non-nil, is the durability layer every persistable
	// document writes through. See durability.go.
	persist *persist.Manager
	// snapshotEvery is the journal-records-per-snapshot compaction
	// threshold.
	snapshotEvery int
	// parallelism is the worker count handed to every document's element
	// table: 1 evaluates queries sequentially, more shards large candidate
	// scans. Always a concrete count (auto requests are resolved against
	// GOMAXPROCS when set).
	parallelism int
	// freezeAfter and freezeMinReads are the adaptive-freeze policy (see
	// freeze.go): a document with no write for freezeAfter and at least
	// freezeMinReads reads since its last write is re-labeled into the
	// compact scheme in the background. freezeAfter <= 0 disables freezing.
	freezeAfter    time.Duration
	freezeMinReads uint64
	// querystats is the pg_stat_statements-style registry every query is
	// folded into under its normalized shape; see internal/server/querystats.
	querystats *querystats.Registry
}

// NewStore returns an empty registry reporting into metrics. cacheCap is
// the per-document LRU capacity (<= 0 disables query caching). Query
// parallelism defaults to the number of usable CPUs; see SetParallelism.
func NewStore(metrics *Metrics, cacheCap int) *Store {
	return &Store{
		docs:        make(map[string]*document),
		metrics:     metrics,
		logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		cacheCap:    cacheCap,
		parallelism: parallel.Workers(0),
		querystats:  querystats.New(0),
	}
}

// SetParallelism sets the query worker count applied to subsequently
// loaded or recovered documents: 1 disables parallel evaluation, larger
// values shard big candidate scans across that many workers, and any
// value <= 0 means auto (GOMAXPROCS). Call before the store starts
// serving; documents already loaded keep their current setting.
func (s *Store) SetParallelism(workers int) {
	s.parallelism = parallel.Workers(workers)
}

// Parallelism returns the resolved query worker count new documents get.
func (s *Store) Parallelism() int { return s.parallelism }

// SetLogger directs the store's structured log output. Call before the
// store starts serving; it is not safe to swap the logger concurrently
// with requests. A nil logger restores the discarding default.
func (s *Store) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.logger = l
}

// buildScheme materializes the labeling scheme a load request asks for.
func buildScheme(req api.LoadRequest) (labeling.Scheme, error) {
	switch req.Scheme {
	case "", "prime":
		return prime.Scheme{Opts: prime.Options{
			ReservedPrimes:   req.ReservedPrimes,
			PowerOfTwoLeaves: req.PowerOfTwoLeaves,
			Power2Threshold:  req.Power2Threshold,
			TrackOrder:       req.TrackOrder,
			SCChunk:          req.SCChunk,
			OrderSpacing:     req.OrderSpacing,
			RecyclePrimes:    req.RecyclePrimes,
		}}, nil
	case "prime-bottomup":
		return prime.BottomUpScheme{}, nil
	case "prime-decomposed":
		return prime.DecomposedScheme{}, nil
	case "interval":
		return interval.Scheme{Variant: interval.XISS}, nil
	case "xrel":
		return interval.Scheme{Variant: interval.XRel}, nil
	case "prefix-1":
		return prefix.Scheme{Variant: prefix.Prefix1, OrderPreserving: req.OrderPreserving}, nil
	case "prefix-2":
		return prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: req.OrderPreserving}, nil
	case "dewey":
		return prefix.DeweyScheme{}, nil
	case "float":
		return floatlab.Scheme{}, nil
	case "compact":
		return compact.Scheme{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadRequest, req.Scheme)
	}
}

// plannerOf parses the planner selection. The extent planner — per-step
// cost-based dispatch over the document-order columns — is the default;
// "stacktree" and "nestedloop" remain selectable (and parse from persisted
// metadata of older documents) for ablation and as the parity oracle.
func plannerOf(name string) (rdb.Planner, string, error) {
	switch name {
	case "", "extent":
		return rdb.Extent, "extent", nil
	case "stacktree":
		return rdb.StackTree, "stacktree", nil
	case "nestedloop":
		return rdb.NestedLoop, "nestedloop", nil
	default:
		return 0, "", fmt.Errorf("%w: unknown planner %q", ErrBadRequest, name)
	}
}

// Load parses, labels and indexes a document, replacing any existing
// document with the same name. Replacement resets the generation counter:
// conditional requests against the old instance fail with a stale
// generation, which is the intended signal. A trace carried by ctx records
// parse, label, index and (on a durable server) snapshot_write spans.
func (s *Store) Load(ctx context.Context, name string, req api.LoadRequest) (api.DocInfo, error) {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return api.DocInfo{}, fmt.Errorf("%w: document name must be non-empty without '/' or spaces", ErrBadRequest)
	}
	if req.XML == "" {
		return api.DocInfo{}, fmt.Errorf("%w: empty xml", ErrBadRequest)
	}
	scheme, err := buildScheme(req)
	if err != nil {
		return api.DocInfo{}, err
	}
	plan, planName, err := plannerOf(req.Planner)
	if err != nil {
		return api.DocInfo{}, err
	}
	endParse := trace.Start(ctx, trace.StageParse)
	tree, err := xmlparse.ParseDocument(strings.NewReader(req.XML), xmlparse.Options{})
	endParse()
	if err != nil {
		return api.DocInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	endLabel := trace.Start(ctx, trace.StageLabel)
	lab, err := scheme.Label(tree)
	endLabel()
	if err != nil {
		return api.DocInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if pl, ok := lab.(*prime.Labeling); ok {
		// The store's metrics own the ancestor-test counters, so the series
		// stay monotonic across document replacement and deletion.
		pl.SetStats(s.metrics.Ancestors())
	}
	endIndex := trace.Start(ctx, trace.StageIndex)
	table := rdb.Build(lab)
	table.Plan = plan
	table.Parallelism = s.parallelism
	table.Warm()
	endIndex()
	d := &document{
		name:    name,
		planner: planName,
		lab:     lab,
		table:   table,
		cache:   newQueryCache(s.cacheCap),
	}
	d.lastWrite.Store(time.Now().UnixNano())
	s.mu.Lock()
	old, existed := s.docs[name]
	s.docs[name] = d
	s.mu.Unlock()
	if !existed {
		s.metrics.documents.Add(1)
	}
	if existed {
		// The replaced instance must stop journaling before the new one
		// takes over the on-disk files.
		if j := retire(old); j != nil {
			j.Close()
		}
	}
	if s.persist != nil {
		if !codec.Supported(lab) {
			// Hosted non-durable; clear any persisted state from a previous
			// durable instance so recovery cannot resurrect it.
			if err := s.persist.Remove(name); err != nil {
				s.metrics.persistErrors.Add(1)
			}
		} else if err := s.makeDurable(ctx, d); err != nil {
			s.metrics.persistErrors.Add(1)
			return api.DocInfo{}, fmt.Errorf("server: document %q loaded but not durable: %v", name, err)
		}
	}
	d.mu.RLock()
	info := d.info()
	d.mu.RUnlock()
	return info, nil
}

// get looks a document up.
func (s *Store) get(name string) (*document, error) {
	s.mu.RLock()
	d, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	return d, nil
}

// Delete removes a document from the registry along with its persisted
// state. In-flight requests holding the old document finish against it; new
// requests see 404.
func (s *Store) Delete(ctx context.Context, name string) error {
	s.mu.Lock()
	d, ok := s.docs[name]
	delete(s.docs, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	s.metrics.documents.Add(-1)
	if j := retire(d); j != nil {
		j.Close()
	}
	if s.persist != nil {
		if err := s.persist.Remove(name); err != nil {
			s.metrics.persistErrors.Add(1)
		}
	}
	return nil
}

// List describes every hosted document, sorted by name.
func (s *Store) List() []api.DocInfo {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	out := make([]api.DocInfo, 0, len(docs))
	for _, d := range docs {
		d.mu.RLock()
		out = append(out, d.info())
		d.mu.RUnlock()
	}
	// Registry iteration order is random; stable output is friendlier to
	// clients and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Count returns the number of hosted documents.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Info describes one document.
func (s *Store) Info(name string) (api.DocInfo, error) {
	d, err := s.get(name)
	if err != nil {
		return api.DocInfo{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.info(), nil
}

// info snapshots the document's description. Callers hold d.mu (either
// mode), except during Load where the document is not yet published.
func (d *document) info() api.DocInfo {
	info := api.DocInfo{
		Name:         d.name,
		Scheme:       d.lab.SchemeName(),
		Planner:      d.planner,
		Elements:     d.table.Len(),
		MaxLabelBits: d.lab.MaxLabelBits(),
		Generation:   d.gen,
		Relabeled:    d.relabeled,
		Durable:      d.durable,
	}
	if d.frozen != nil {
		info.Frozen = true
		info.FrozenMaxLabelBits = d.frozen.MaxLabelBits()
	}
	return info
}

// Query evaluates an XPath-subset expression under the document's read
// lock, consulting the per-document LRU first (entries computed at an
// older generation are treated as misses). On a frozen document the join
// runs against the compact overlay's table — same planner, constant-time
// integer predicates — while node ids and labels still come from the base
// table and labeling, so the response is byte-identical either way. A
// trace carried by ctx records lock_wait, cache_lookup, and (on a miss)
// xpath_eval spans plus a query_fanout span when the executor sharded work
// across workers. Every call is also folded into the query-stats registry
// under the query's normalized shape.
func (s *Store) Query(ctx context.Context, name, query string) (*api.QueryResponse, error) {
	return s.QueryMode(ctx, name, query, api.QueryModeNodes, false)
}

// QueryExplain is Query with profiling: the response additionally carries a
// QueryExplain describing the planner choice (cache hit, serving backend,
// fan-out), per-step candidate/emitted counts, ancestor-fastpath counter
// deltas on prime-backed documents, label-bit stats, and the request's
// per-stage timings. The node set is exactly what Query would return.
func (s *Store) QueryExplain(ctx context.Context, name, query string) (*api.QueryResponse, error) {
	return s.QueryMode(ctx, name, query, api.QueryModeNodes, true)
}

// queryOut is a nodes-mode answer: resp for the in-process API, or the
// /query body. A body is appended to the caller's buffer unless shared is
// set, in which case it is a cache entry's own bytes and must not be
// modified.
type queryOut struct {
	resp   *api.QueryResponse
	body   []byte
	shared bool
}

// appendQuery answers a /query request in any mode as its JSON body,
// appended to dst or shared with a cache entry (see queryOut). Nodes mode
// encodes rows straight into dst; count and exists encode their small
// response.
func (s *Store) appendQuery(ctx context.Context, name string, req api.QueryRequest, explain bool, dst []byte) (body []byte, shared bool, err error) {
	if req.Mode == api.QueryModeNodes {
		out, err := s.query(ctx, name, req.XPath, explain, dst, true)
		return out.body, out.shared, err
	}
	resp, err := s.QueryMode(ctx, name, req.XPath, req.Mode, explain)
	if err != nil {
		return nil, false, err
	}
	defer trace.Start(ctx, trace.StageEncode)()
	if body, err = api.AppendQueryResponse(dst, resp); err != nil {
		return nil, false, fmt.Errorf("encode query response: %w", err)
	}
	return body, false, nil
}

// query is the nodes-mode body of QueryMode (asBytes false: the answer is
// resp) and of /query (asBytes true: the answer is body, see queryOut).
// Either way the terminal runs under the document's read lock, recorded as
// one encode span: a miss turns its rows into node refs or appends their
// JSON to dst, and caches the rows with the bytes a later hit answers
// with; a hit answers from those bytes, or re-reads the entry's rows.
func (s *Store) query(ctx context.Context, name, query string, explain bool, dst []byte, asBytes bool) (queryOut, error) {
	if query == "" {
		return queryOut{}, fmt.Errorf("%w: empty xpath", ErrBadRequest)
	}
	d, err := s.get(name)
	if err != nil {
		return queryOut{}, err
	}
	start := time.Now()
	s.metrics.queries.Add(1)
	d.noteRead()
	defer s.maybeFreeze(d)
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	defer d.mu.RUnlock()
	endCache := trace.Start(ctx, trace.StageCacheLookup)
	cached, ok := d.cache.get(query, d.gen)
	endCache()
	frozenServe := d.frozen != nil && d.frozenOrder
	if ok {
		s.metrics.cacheHits.Add(1)
		s.querystats.Record(querystats.Sample{
			Doc: name, Query: query, Latency: time.Since(start),
			CacheHit: true, Frozen: frozenServe,
		})
		var profile *api.QueryExplain
		if explain {
			profile = &api.QueryExplain{
				Shape:    s.querystats.ShapeOf(query),
				CacheHit: true,
				Backend:  d.backendName(frozenServe),
				Stages:   explainStages(ctx),
			}
		}
		if !asBytes {
			return queryOut{resp: &api.QueryResponse{
				Generation: d.gen, Count: cached.count, Cached: true,
				Nodes: cached.nodesOf(d), Explain: profile,
			}}, nil
		}
		switch {
		case cached.body == nil: // filled in process: encode its rows
			endEncode := trace.Start(ctx, trace.StageEncode)
			dst, _ = d.newMaterializer().appendBody(dst, cached.rows, true)
			endEncode()
		case profile == nil:
			return queryOut{body: cached.body, shared: true}, nil
		default: // splice the profile in before the closing brace
			dst = append(dst, cached.body[:len(cached.body)-len("}\n")]...)
		}
		return closedBody(dst, profile)
	}
	s.metrics.cacheMisses.Add(1)
	table := d.table
	if frozenServe {
		// Both tables index the same tree in document order, so row ids are
		// interchangeable; only the join predicates differ. The overlay is
		// skipped when the base scheme lacks order support: a query over an
		// ordered axis must fail exactly as the base table would, and the
		// compact overlay would answer it instead.
		table = d.frozenTable
	}
	var ex *rdb.Explain
	var fpBefore api.ExplainFastpath
	primeBacked := false
	if explain {
		ex = &rdb.Explain{}
		if !frozenServe {
			_, primeBacked = d.lab.(*prime.Labeling)
		}
		if primeBacked {
			fpBefore = s.fastpathCounters()
		}
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
		return queryOut{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	endEncode := trace.Start(ctx, trace.StageEncode)
	ent := &cacheEntry{key: query, gen: d.gen, count: len(rows), rows: rows}
	var out queryOut
	if asBytes {
		var at int
		dst, at = d.newMaterializer().appendBody(dst, rows, false)
		if d.cache.enabled() {
			ent.body = hitBody(dst, at)
		}
	} else {
		nodes := d.newMaterializer().nodes(rows)
		ent.nodes.Store(&nodes)
		out.resp = &api.QueryResponse{Generation: d.gen, Count: len(rows), Nodes: nodes}
	}
	endEncode()
	d.cache.put(ent)

	// Build the planner-summary profile on every miss (the query-stats
	// registry attaches it to a shape's slowest call); step, fastpath and
	// stage detail only when the caller asked for explain.
	profile := d.queryProfile(s, query, stats, frozenServe)
	if explain {
		profile.Steps = explainSteps(ex)
		if primeBacked {
			after := s.fastpathCounters()
			profile.Fastpath = &api.ExplainFastpath{
				PrefilterRejects: after.PrefilterRejects - fpBefore.PrefilterRejects,
				ExactU64:         after.ExactU64 - fpBefore.ExactU64,
				ExactBig:         after.ExactBig - fpBefore.ExactBig,
				ExactTrue:        after.ExactTrue - fpBefore.ExactTrue,
			}
		}
		profile.Stages = explainStages(ctx)
	}
	s.querystats.Record(querystats.Sample{
		Doc: name, Query: query, Latency: time.Since(start),
		Candidates: stats.Candidates, Frozen: frozenServe, Profile: profile,
	})
	if !explain {
		profile = nil
	}
	if asBytes {
		return closedBody(dst, profile)
	}
	out.resp.Explain = profile
	return out, nil
}

// closedBody closes an open /query body as query's answer.
func closedBody(b []byte, profile *api.QueryExplain) (queryOut, error) {
	b, err := closeBody(b, profile)
	if err != nil {
		return queryOut{}, fmt.Errorf("encode query response: %w", err)
	}
	return queryOut{body: b}, nil
}

// node resolves a document-order id under the caller-held lock.
func (d *document) node(id int) (*xmltree.Node, error) {
	if id < 0 || id >= d.table.Len() {
		return nil, fmt.Errorf("%w: node id %d out of range [0,%d)", ErrBadRequest, id, d.table.Len())
	}
	return d.table.Node(id), nil
}

// checkGeneration enforces a conditional request's generation pin.
func (d *document) checkGeneration(want *uint64) error {
	if want != nil && *want != d.gen {
		return fmt.Errorf("%w: have %d, request pinned %d", ErrStaleGeneration, d.gen, *want)
	}
	return nil
}

// Relation answers an ancestor/parent/before probe from labels alone — on
// a frozen document from the compact overlay's two-word labels (constant
// integer comparisons), otherwise from the base scheme. The two backends
// return identical results: the overlay describes the same tree, and a
// frozen Before delegates back to the base labeling when that scheme lacks
// order support, so even the error is the base scheme's. A trace carried
// by ctx records lock_wait and label_probe spans; per-backend latency
// feeds labeld_probe_duration_seconds.
func (s *Store) Relation(ctx context.Context, name string, req api.RelationRequest) (api.RelationResponse, error) {
	d, err := s.get(name)
	if err != nil {
		return api.RelationResponse{}, err
	}
	d.noteRead()
	defer s.maybeFreeze(d)
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	defer d.mu.RUnlock()
	if err := d.checkGeneration(req.Generation); err != nil {
		return api.RelationResponse{}, err
	}
	a, err := d.node(req.A)
	if err != nil {
		return api.RelationResponse{}, err
	}
	b, err := d.node(req.B)
	if err != nil {
		return api.RelationResponse{}, err
	}
	lab := d.lab
	frozen := d.frozen != nil
	endProbe := trace.Start(ctx, trace.StageLabelProbe)
	defer endProbe()
	probeStart := time.Now()
	var result bool
	switch req.Kind {
	case api.RelAncestor:
		if frozen {
			result = d.frozen.IsAncestor(a, b)
		} else {
			result = lab.IsAncestor(a, b)
		}
	case api.RelParent:
		if frozen {
			result = d.frozen.IsParent(a, b)
		} else {
			result = lab.IsParent(a, b)
		}
	case api.RelBefore:
		if frozen && d.frozenOrder {
			result, err = d.frozen.Before(a, b)
		} else {
			result, err = lab.Before(a, b)
		}
		if err != nil {
			return api.RelationResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	default:
		return api.RelationResponse{}, fmt.Errorf("%w: unknown relation %q", ErrBadRequest, req.Kind)
	}
	if frozen {
		s.metrics.probeFrozen.Observe(time.Since(probeStart))
	} else {
		s.metrics.probeBase.Observe(time.Since(probeStart))
	}
	return api.RelationResponse{Generation: d.gen, Result: result}, nil
}

// applyOp performs one update's mutation against the labeling. It returns
// the relabel count, the touched node (inserted element or wrapper, nil for
// delete), whether the operation reached the labeling (validation failures
// do not, and must not be journaled), and the labeling error if any. A
// labeling error with applied=true means state may have mutated partway —
// the caller must still reindex. Callers hold the write lock. Replay during
// recovery runs the same code path, which is what makes journal replay
// reproduce live behavior exactly.
func (d *document) applyOp(req api.UpdateRequest) (count int, touched *xmltree.Node, applied bool, err error) {
	switch req.Op {
	case api.OpInsert:
		if req.Tag == "" {
			return 0, nil, false, fmt.Errorf("%w: insert needs a tag", ErrBadRequest)
		}
		parent, nerr := d.node(req.Parent)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		if req.Index < 0 {
			return 0, nil, false, fmt.Errorf("%w: negative index", ErrBadRequest)
		}
		touched = xmltree.NewElement(req.Tag)
		count, err = d.lab.InsertChildAt(parent, rawChildIndex(parent, req.Index), touched)
		return count, touched, true, err
	case api.OpWrap:
		if req.Tag == "" {
			return 0, nil, false, fmt.Errorf("%w: wrap needs a tag", ErrBadRequest)
		}
		target, nerr := d.node(req.Target)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		touched = xmltree.NewElement(req.Tag)
		count, err = d.lab.WrapNode(target, touched)
		return count, touched, true, err
	case api.OpDelete:
		target, nerr := d.node(req.Target)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		return 0, nil, true, d.lab.Delete(target)
	default:
		return 0, nil, false, fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op)
	}
}

// applyOpIndexed performs one update's mutation and keeps the element table
// consistent with it, patching the table in place when the op's effect is
// localized enough to track: the prime scheme with order tracking inserts
// exactly one new row (insert, wrap) or removes one subtree's rows (delete),
// and the SC table's last-shift record says which ranks moved. When the op
// cannot be patched — other schemes, order tracking off, a labeling error
// that may have mutated state partway, or d.noPatch — patched is false and
// the table no longer matches the labeling: the caller must rebuild it via
// finishOp. Callers hold the write lock. Both live updates and recovery
// replay run this path, which is what keeps replay equivalent to live
// behavior.
func (d *document) applyOpIndexed(req api.UpdateRequest) (count int, touched *xmltree.Node, applied, patched bool, err error) {
	pl, _ := d.lab.(*prime.Labeling)
	canPatch := pl != nil && pl.SCTable() != nil && !d.noPatch

	// A delete's target row and subtree must be captured before the
	// mutation detaches the target from the tree.
	var delTarget *xmltree.Node
	delPos := -1
	if canPatch && req.Op == api.OpDelete {
		if n, nerr := d.node(req.Target); nerr == nil {
			delTarget = n
			if p, ok := d.table.RowOf(n); ok {
				delPos = p
			}
		}
	}

	count, touched, applied, err = d.applyOp(req)
	if !applied || err != nil || !canPatch {
		return count, touched, applied, false, err
	}

	switch req.Op {
	case api.OpInsert, api.OpWrap:
		var pos int
		var ok bool
		if req.Op == api.OpWrap {
			// The wrapper took over its target's place in document order:
			// it goes in the target's old row, pushing the target (now its
			// only element child) and everything after down by one.
			if t, nerr := d.node(req.Target); nerr == nil {
				pos, ok = d.table.RowOf(t)
			}
		} else {
			pos, ok = d.table.InsertPos(touched)
		}
		if !ok {
			return count, touched, applied, false, nil
		}
		rank, rerr := pl.OrderOf(touched)
		if rerr != nil {
			return count, touched, applied, false, nil
		}
		// Order numbers are strictly increasing in document order, so the
		// ranks the insertion shifted (order >= LastShift.From) are exactly
		// the rows after the new one.
		d.table.PatchInsert(pos, touched, rank, pl.SCTable().LastShift().Delta)
		return count, touched, applied, true, nil
	case api.OpDelete:
		if delTarget == nil || delPos < 0 {
			return count, touched, applied, false, nil
		}
		// Deleting never renumbers surviving nodes, so dropping the
		// subtree's rows is the whole patch.
		d.table.PatchDelete(delPos, xmltree.Elements(delTarget))
		return count, touched, applied, true, nil
	}
	return count, touched, applied, false, nil
}

// finishOp completes one applied op's index maintenance under the write
// lock: when the op was not patched in place the element table is rebuilt
// (without warming — callers warm once at the end); in both cases the
// generation advances — even for an op that failed after mutating state,
// so a half-applied mutation can never serve stale rows or stale node ids.
// Advancing the generation is also what invalidates the query cache: its
// entries are tagged with the generation they were computed at.
func (d *document) finishOp(patched bool) {
	if !patched {
		old := d.table
		d.table = rdb.Build(d.lab)
		d.table.Plan = old.Plan
		d.table.Parallelism = old.Parallelism
		d.table.MinParallelWork = old.MinParallelWork
	}
	d.gen++
}

// observeReindex records which reindex path an applied op took.
func (s *Store) observeReindex(patched bool) {
	if patched {
		s.metrics.reindexIncr.Add(1)
	} else {
		s.metrics.reindexFull.Add(1)
	}
}

// Update applies one dynamic update under the document's write lock, then
// reindexes — incrementally patching the element table when the op allows
// it, rebuilding and re-warming otherwise — and advances the generation
// (which is what invalidates cached query results). When the document is durable the record is
// appended under the lock and made stable after it is released, so
// concurrent updates to the same document coalesce onto one fsync (group
// commit); a journal failure fails the request and retires the journal so
// recovery never replays past a hole.
//
// Generation and counter semantics: a validation failure (unknown op, bad
// node id, missing tag) mutates nothing and does not advance the
// generation — a client retrying with its pinned generation will not see a
// spurious conflict. A labeling error after validation may have mutated
// state partway, so it advances the generation and is journaled with its
// failure flag. labeld_updates_total counts only acknowledged successes
// (applied, journaled and — with fsync on — synced); every other outcome
// lands in labeld_update_failures_total.
//
// A trace carried by ctx records lock_wait, relabel, reindex and — on a
// durable document — journal_append, journal_group_wait and journal_fsync
// spans, the breakdown that answers "why was this update slow?".
func (s *Store) Update(ctx context.Context, name string, req api.UpdateRequest) (api.UpdateResponse, error) {
	d, err := s.get(name)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	resp, commit, opErr := s.updateOne(ctx, d, req)
	var commitErr error
	if commit != nil {
		commitErr = s.commitJournal(ctx, d, commit)
	}
	if opErr == nil {
		opErr = commitErr
	}
	if opErr != nil {
		s.metrics.updateFailures.Add(1)
		return api.UpdateResponse{}, opErr
	}
	s.metrics.updates.Add(1)
	s.metrics.relabeled.Add(uint64(resp.Relabeled))
	return resp, nil
}

// updateOne is Update's write-lock critical section: apply, reindex,
// journal-append, build the response. The returned pendingCommit (nil on a
// non-durable document or when nothing was journaled) must be committed
// after the lock is released.
func (s *Store) updateOne(ctx context.Context, d *document, req api.UpdateRequest) (api.UpdateResponse, *pendingCommit, error) {
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.Lock()
	endLock()
	defer d.mu.Unlock()
	if err := d.checkGeneration(req.Generation); err != nil {
		return api.UpdateResponse{}, nil, err
	}
	s.thawForWrite(ctx, d)

	endRelabel := trace.Start(ctx, trace.StageRelabel)
	count, touched, applied, patched, opErr := d.applyOpIndexed(req)
	endRelabel()
	if !applied {
		return api.UpdateResponse{}, nil, opErr
	}

	// Reindex unconditionally: the table must reflect whatever state the
	// labeling is in now.
	endReindex := trace.Start(ctx, trace.StageReindex)
	d.finishOp(patched)
	if !patched {
		d.table.Warm()
	}
	endReindex()
	s.observeReindex(patched)
	d.relabeled += uint64(count)

	var commit *pendingCommit
	if d.journal != nil {
		rec := persist.Record{Gen: d.gen, Relabeled: d.relabeled, Count: count, Failed: opErr != nil, Req: req,
			TraceID: trace.ID(ctx), Fence: d.fenceEpoch}
		rec.Req.Generation = nil // replay applies records unconditionally
		var err error
		if commit, err = s.journalAppendLocked(ctx, d, rec); err != nil {
			return api.UpdateResponse{}, nil, err
		}
	}
	if opErr != nil {
		return api.UpdateResponse{}, commit, fmt.Errorf("%w: %v", ErrBadRequest, opErr)
	}
	nodeID := -1
	if touched != nil {
		if id, ok := d.table.RowOf(touched); ok {
			nodeID = id
		}
	}
	return api.UpdateResponse{Generation: d.gen, Relabeled: count, Node: nodeID}, commit, nil
}

// maxBatchOps caps the ops accepted in one batch request, bounding both the
// write-lock hold time and the size of the single journal record a batch
// becomes.
const maxBatchOps = 1024

// UpdateBatch applies a sequence of updates under one write-lock
// acquisition with one reindex warm-up and — on a durable document — one
// journal record and one group-committed fsync, instead of paying each of
// those per op. Ops apply in order against the state the previous op left;
// the batch stops at the first failure and earlier ops stay applied (the
// response's Failed field reports the stopping index). Generation and
// counter semantics per op match Update exactly.
func (s *Store) UpdateBatch(ctx context.Context, name string, req api.BatchUpdateRequest) (api.BatchUpdateResponse, error) {
	if len(req.Ops) == 0 {
		return api.BatchUpdateResponse{}, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(req.Ops) > maxBatchOps {
		return api.BatchUpdateResponse{}, fmt.Errorf("%w: batch of %d ops exceeds the %d-op limit", ErrBadRequest, len(req.Ops), maxBatchOps)
	}
	for i, op := range req.Ops {
		if op.Generation != nil {
			return api.BatchUpdateResponse{}, fmt.Errorf("%w: op %d carries a generation pin; pin the batch instead", ErrBadRequest, i)
		}
	}
	d, err := s.get(name)
	if err != nil {
		return api.BatchUpdateResponse{}, err
	}
	resp, commit, succeeded, bail := s.updateBatchLocked(ctx, d, req)
	var commitErr error
	if commit != nil {
		commitErr = s.commitJournal(ctx, d, commit)
	}
	if bail != nil {
		// Nothing was acknowledged: generation-pin conflict, first-op
		// validation failure, or journal-append failure.
		s.metrics.updateFailures.Add(1)
		return api.BatchUpdateResponse{}, bail
	}
	if commitErr != nil {
		// The batch applied in memory but its durability is unknown; no op
		// is acknowledged.
		s.metrics.updateFailures.Add(uint64(len(resp.Results)))
		return api.BatchUpdateResponse{}, commitErr
	}
	s.metrics.updates.Add(uint64(succeeded))
	s.metrics.relabeled.Add(uint64(resp.Relabeled))
	if resp.Failed >= 0 {
		s.metrics.updateFailures.Add(1)
	}
	return resp, nil
}

// updateBatchLocked is UpdateBatch's write-lock critical section. It
// returns the response, the pending journal commit (nil when nothing was
// journaled), the number of fully successful ops, and a bail error for the
// no-op outcomes (stale pin, first-op validation failure, journal-append
// failure) where the caller should surface a plain error instead of a
// batch response.
func (s *Store) updateBatchLocked(ctx context.Context, d *document, req api.BatchUpdateRequest) (api.BatchUpdateResponse, *pendingCommit, int, error) {
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.Lock()
	endLock()
	defer d.mu.Unlock()
	if err := d.checkGeneration(req.Generation); err != nil {
		return api.BatchUpdateResponse{}, nil, 0, err
	}
	s.thawForWrite(ctx, d)

	resp := api.BatchUpdateResponse{Failed: -1}
	var (
		ops       []persist.OpRecord
		touched   []*xmltree.Node
		needWarm  bool
		succeeded int
	)
	endRelabel := trace.Start(ctx, trace.StageRelabel)
	for i, op := range req.Ops {
		count, tn, applied, patched, opErr := d.applyOpIndexed(op)
		if !applied {
			if i == 0 {
				// Nothing in the batch touched the document; fail the
				// request outright, exactly like a single update would.
				endRelabel()
				return api.BatchUpdateResponse{}, nil, 0, opErr
			}
			resp.Failed = i
			resp.Results = append(resp.Results, api.BatchOpResult{Node: -1, Error: opErr.Error()})
			break
		}
		d.finishOp(patched)
		s.observeReindex(patched)
		if !patched {
			needWarm = true
		}
		d.relabeled += uint64(count)
		resp.Relabeled += count
		ops = append(ops, persist.OpRecord{Req: op, Count: count, Failed: opErr != nil})
		ops[len(ops)-1].Req.Generation = nil
		res := api.BatchOpResult{Relabeled: count, Node: -1}
		if opErr != nil {
			res.Error = opErr.Error()
			resp.Failed = i
			resp.Results = append(resp.Results, res)
			touched = append(touched, nil)
			break
		}
		succeeded++
		resp.Results = append(resp.Results, res)
		touched = append(touched, tn)
	}
	endRelabel()
	endReindex := trace.Start(ctx, trace.StageReindex)
	if needWarm {
		d.table.Warm()
	}
	endReindex()

	// Node ids are only meaningful in the final generation, so resolve them
	// after the whole batch has applied.
	for i, tn := range touched {
		if tn == nil {
			continue
		}
		if id, ok := d.table.RowOf(tn); ok {
			resp.Results[i].Node = id
		}
	}
	resp.Generation = d.gen

	var commit *pendingCommit
	if d.journal != nil && len(ops) > 0 {
		rec := persist.Record{Gen: d.gen, Relabeled: d.relabeled, Ops: ops, TraceID: trace.ID(ctx),
			Fence: d.fenceEpoch}
		var err error
		if commit, err = s.journalAppendLocked(ctx, d, rec); err != nil {
			return api.BatchUpdateResponse{}, nil, 0, err
		}
	}
	return resp, commit, succeeded, nil
}

// rawChildIndex maps an index among element children to an index among all
// children (text nodes interleave).
func rawChildIndex(parent *xmltree.Node, elemIdx int) int {
	if elemIdx <= 0 {
		return 0
	}
	seen := 0
	for i, c := range parent.Children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		seen++
		if seen == elemIdx {
			return i + 1
		}
	}
	return len(parent.Children)
}
