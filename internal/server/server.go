package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/cluster"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/replica"
	"primelabel/internal/server/trace"
)

// Config tunes a Server. The zero value is usable: it listens on a random
// port with the defaults below.
type Config struct {
	// Addr is the listen address (default ":0", an OS-assigned port).
	Addr string
	// CacheSize is the per-document query cache capacity (default 256;
	// negative disables caching).
	CacheSize int
	// QueryParallelism is the worker count for parallel query evaluation:
	// large candidate scans are sharded across this many workers. 1 keeps
	// evaluation fully sequential; 0 or negative (the default) means auto —
	// one worker per usable CPU.
	QueryParallelism int
	// RequestTimeout bounds each request's handling time (default 10s).
	// Requests that exceed it receive 503 with a JSON error body.
	RequestTimeout time.Duration
	// ShutdownGrace bounds how long Shutdown waits for in-flight requests
	// (default 10s).
	ShutdownGrace time.Duration
	// DataDir, when set, enables durability: documents are snapshotted and
	// updates journaled under this directory, and Recover restores them on
	// the next start. Empty (the default) runs the server purely in memory.
	DataDir string
	// NoFsync disables flushing journal appends and snapshots to stable
	// storage before acknowledging — faster, but acknowledged updates may be
	// lost on a crash. Only meaningful with DataDir.
	NoFsync bool
	// SnapshotEvery is the number of journal records per document that
	// triggers a background snapshot compaction (default 1024). Only
	// meaningful with DataDir.
	SnapshotEvery int
	// Logger receives the server's structured log records (per-request
	// debug lines, slow-request reports, durability errors). Nil discards
	// all logging.
	Logger *slog.Logger
	// SlowRequest is the duration beyond which a request is logged in full
	// — trace ID, endpoint, document, and every recorded span. Zero
	// disables slow-request logging.
	SlowRequest time.Duration
	// TraceBuffer is the capacity of the completed-trace ring buffer served
	// by /debug/traces (default 256; negative disables trace retention —
	// requests still carry trace IDs, but /debug/traces stays empty).
	TraceBuffer int
	// QueryStatsShapes bounds the query-statistics registry served by
	// /debug/querystats: at most this many (document, query shape) entries
	// are tracked, with LRU eviction beyond it (default 4096).
	QueryStatsShapes int
	// DebugAddr, when set, starts a second listener serving net/http/pprof
	// under /debug/pprof/ plus mirrors of /debug/traces and /metrics. Keep
	// it off the public address: pprof exposes heap and goroutine dumps.
	DebugAddr string
	// FollowURL, when set, starts the server as a read replica of the
	// primary at this base URL (e.g. "http://10.0.0.1:8080"): it discovers
	// the primary's documents, pulls their replication streams, and rejects
	// writes with 403 until POST /promote. Followers usually also set
	// DataDir so replicated state survives their own restarts.
	FollowURL string
	// FollowPoll is the follower's document-discovery interval against the
	// primary (default 3s). Only meaningful with FollowURL.
	FollowPoll time.Duration
	// ReplicaHeartbeat is the idle heartbeat interval on replication streams
	// this server serves to followers (default 3s).
	ReplicaHeartbeat time.Duration
	// FreezeAfter, when positive, enables adaptive freezing: a document
	// with no write for this long (and at least FreezeMinReads reads since
	// its last write) is re-labeled in the background into the compact
	// fixed-width scheme and serves reads from constant-time integer
	// comparisons until the next write thaws it. Zero (the default)
	// disables freezing.
	FreezeAfter time.Duration
	// FreezeMinReads is the minimum number of reads since a document's last
	// write before it qualifies for freezing (default 1). Only meaningful
	// with FreezeAfter.
	FreezeMinReads int
	// ClusterNodes, when set, makes this server a cluster member: it lists
	// every member's advertised base URL (including this server's own,
	// ClusterSelf). Members probe each other's health, serve GET /topology,
	// place documents on the consistent-hash ring, and run metric-driven
	// failover.
	ClusterNodes []string
	// ClusterSelf is this server's own advertised base URL, as it appears
	// in ClusterNodes. Required when ClusterNodes is set.
	ClusterSelf string
	// ClusterPins overrides ring placement per document: document name →
	// owning member URL.
	ClusterPins map[string]string
	// ClusterVNodes is the ring's virtual-node count per member (default
	// 64). Only meaningful with ClusterNodes.
	ClusterVNodes int
	// ClusterProbe is the inter-member health-probe interval (default 1s).
	// Only meaningful with ClusterNodes.
	ClusterProbe time.Duration
	// FailoverAfter, when positive, arms automatic failover: when the
	// primary this follower pulls from stays unreachable for this long, the
	// designated successor (deterministic among the healthy followers)
	// self-promotes, bumps the fencing epoch, and the remaining followers
	// re-point at it. Zero disables self-promotion (operators promote
	// manually). Only meaningful with ClusterNodes on a follower.
	FailoverAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":0"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	return c
}

// Server is the labeld HTTP service: a Store plus its HTTP surface.
type Server struct {
	cfg      Config
	store    *Store
	metrics  *Metrics
	logger   *slog.Logger
	traces   *trace.Ring
	httpSrv  *http.Server
	ln       net.Listener
	serveErr chan error
	debugSrv *http.Server
	debugLn  net.Listener

	// Replication state (see replication.go): streamer serves outbound
	// /replicate streams, bounded by streamCtx so Shutdown can end them;
	// follower (nil unless following) pulls from a primary, and readOnly
	// gates write endpoints until promotion. followMu guards follower —
	// failover re-points it at runtime (Refollow), so every access goes
	// through currentFollower.
	streamer     *replica.Streamer
	streamCtx    context.Context
	streamCancel context.CancelFunc
	followMu     sync.Mutex
	follower     *replica.Follower
	readOnly     atomic.Bool

	// cluster is the fabric manager (nil unless cfg.ClusterNodes is set):
	// topology probes, ring placement, failover watching.
	cluster *cluster.Manager
}

// New returns an unstarted server. When cfg.DataDir is set it opens (and if
// needed creates) the data directory; call Recover before Start to restore
// previously persisted documents.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		logger:  cfg.Logger,
		traces:  trace.NewRing(cfg.TraceBuffer),
		store:   NewStore(m, cfg.CacheSize),
	}
	s.store.SetLogger(cfg.Logger)
	s.store.SetParallelism(cfg.QueryParallelism)
	s.store.SetFreezePolicy(cfg.FreezeAfter, cfg.FreezeMinReads)
	s.store.SetQueryStatsCapacity(cfg.QueryStatsShapes)
	if cfg.DataDir != "" {
		mgr, err := persist.Open(cfg.DataDir, !cfg.NoFsync)
		if err != nil {
			return nil, fmt.Errorf("server: open data dir: %w", err)
		}
		s.store.EnablePersistence(mgr, cfg.SnapshotEvery)
	}
	s.streamCtx, s.streamCancel = context.WithCancel(context.Background())
	s.streamer = &replica.Streamer{
		Source:    s.store,
		Heartbeat: cfg.ReplicaHeartbeat,
		OnMessage: func(kind byte, frameBytes int) {
			m.replBytesOut.Add(uint64(frameBytes))
			switch kind {
			case replica.KindRecord:
				m.replRecordsOut.Add(1)
			case replica.KindSnapshot:
				m.replSnapshotsOut.Add(1)
			}
		},
	}
	if cfg.FollowURL != "" {
		s.readOnly.Store(true)
		s.follower = s.newFollower(cfg.FollowURL)
	}
	if len(cfg.ClusterNodes) > 0 {
		cm, err := cluster.NewManager(cluster.Config{
			Self:          cfg.ClusterSelf,
			Nodes:         cfg.ClusterNodes,
			Pins:          cfg.ClusterPins,
			VNodes:        cfg.ClusterVNodes,
			ProbeInterval: cfg.ClusterProbe,
			FailoverAfter: cfg.FailoverAfter,
			Logger:        cfg.Logger,
			Hooks: cluster.Hooks{
				AddProbe:    func() { m.clusterProbes.Add(1) },
				AddFailover: func() { m.clusterFailovers.Add(1) },
				AddDemotion: func() { m.clusterDemotions.Add(1) },
			},
		}, s)
		if err != nil {
			return nil, fmt.Errorf("server: cluster config: %w", err)
		}
		s.cluster = cm
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// newFollower wires a follower pulling from primary into this server's
// store, metrics, and trace ring. Used at construction (cfg.FollowURL) and
// by Refollow when failover re-points the server at a promoted successor.
func (s *Server) newFollower(primary string) *replica.Follower {
	m := s.metrics
	return replica.NewFollower(primary, s.store, replica.Options{
		Poll:   s.cfg.FollowPoll,
		Logger: s.logger,
		Hooks: replica.Hooks{
			ObserveStage:  m.ObserveStage,
			OnTrace:       s.traces.Add,
			AddBytesIn:    func(n int) { m.replBytesIn.Add(uint64(n)) },
			AddRecordIn:   func() { m.replRecordsIn.Add(1) },
			AddSnapshotIn: func() { m.replSnapshotsIn.Add(1) },
			AddReconnect:  func() { m.replReconnects.Add(1) },
			AddRebase:     func() { m.replRebases.Add(1) },
		},
	})
}

// currentFollower returns the follower this server is running, nil when it
// is not following. The follower field is mutable at runtime (failover
// re-points it), so all readers go through here.
func (s *Server) currentFollower() *replica.Follower {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	return s.follower
}

// Refollow re-points the server at a new primary: the write gate closes (a
// demoted primary must stop accepting writes before anything else), the
// current follower — if any — is stopped with its in-flight applies
// drained, and a fresh follower starts pulling from url. Local document
// copies are kept: the divergence probe rebases them against the new
// primary's journal instead of re-shipping snapshots. Re-following the
// primary already followed is a no-op.
func (s *Server) Refollow(url string) error {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return errors.New("server: refollow: empty primary URL")
	}
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if s.follower != nil && s.readOnly.Load() && s.follower.Primary() == url {
		return nil
	}
	s.readOnly.Store(true)
	if s.follower != nil {
		s.follower.Stop()
	}
	s.follower = s.newFollower(url)
	s.follower.Start()
	s.logger.Info("following primary", "primary", url)
	return nil
}

// Fences exposes the store's per-document fencing epochs to the cluster
// manager (and /healthz).
func (s *Server) Fences() map[string]uint64 { return s.store.Fences() }

// Recover restores every document persisted in the configured data
// directory (snapshot load plus journal replay) and returns their names.
// It is a no-op without a data directory. Call it after New and before
// Start, so recovered documents are visible from the first request.
func (s *Server) Recover() ([]string, error) {
	return s.store.Recover()
}

// Store exposes the underlying registry (used by in-process embedders and
// tests).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the metric registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler builds the routed, instrumented HTTP handler. Every endpoint is
// wrapped with tracing (X-Trace-Id honor/generate/echo, span collection,
// slow-request logging) and latency/error accounting. Quick endpoints run
// under http.TimeoutHandler inside that wrapper, so a request that overruns
// Config.RequestTimeout is recorded as the 503 it answered; /query keeps
// the same deadline itself (handleQuery).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	timed := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(endpoint, http.TimeoutHandler(h, s.cfg.RequestTimeout, timeoutBody).ServeHTTP))
	}
	timed("GET /healthz", "healthz", s.handleHealthz)
	timed("GET /metrics", "metrics", s.handleMetrics)
	timed("GET /debug/traces", "traces", s.handleTraces)
	timed("GET /debug/querystats", "querystats", s.handleQueryStats)
	timed("GET /docs", "list", s.handleList)
	timed("PUT /docs/{name}", "load", s.handleLoad)
	timed("GET /docs/{name}", "get", s.handleInfo)
	timed("DELETE /docs/{name}", "delete", s.handleDelete)
	timed("POST /docs/{name}/relation", "relation", s.handleRelation)
	timed("POST /docs/{name}/update", "update", s.handleUpdate)
	timed("POST /docs/{name}/update/batch", "update_batch", s.handleUpdateBatch)
	timed("POST /promote", "promote", s.handlePromote)
	timed("GET /topology", "topology", s.handleTopology)
	// TimeoutHandler buffers a whole response and copies it before writing;
	// a /query body can run to hundreds of KiB, so /query enforces the
	// deadline without it.
	mux.HandleFunc("POST /docs/{name}/query", s.instrument("query", s.handleQuery))
	// Replication streams run without a deadline: they are meant to run for
	// hours, and TimeoutHandler would both buffer their writes and kill them
	// at the request deadline. Shutdown ends them via streamCtx instead. The
	// digest probe rides next to them — it is a quick request, but belongs
	// with replication.
	mux.HandleFunc("GET /replicate/{name}", s.instrument("replicate", s.handleReplicate))
	mux.HandleFunc("GET /replicate/{name}/digest", s.instrument("replicate_digest", s.handleReplicateDigest))
	// The streaming query endpoint has no deadline either: buffering would
	// hold every chunk until the handler returned — the opposite of
	// streaming.
	mux.HandleFunc("POST /docs/{name}/query/stream", s.instrument("query_stream", s.handleQueryStream))
	return mux
}

// timeoutBody is the 503 body of a request that overran
// Config.RequestTimeout, on /query and behind http.TimeoutHandler alike.
const timeoutBody = `{"error":"request timed out"}`

// handleTopology serves GET /topology: the cluster manager's current view of
// the fabric. 400 on a server that is not a cluster member.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, fmt.Errorf("%w: server is not a cluster member (no cluster nodes configured)", ErrBadRequest))
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Topology())
}

// redirectNonOwner answers a write for a document this node does not own
// under the cluster's placement (consistent-hash ring plus pins) with a
// 307: Location carries the owner's URL joined with the request path, and
// the body names the owner for clients that do not auto-follow redirects.
// Returns true when the request was redirected. A node that is not a
// cluster member, or is the owner, serves the write itself.
func (s *Server) redirectNonOwner(w http.ResponseWriter, r *http.Request, name string) bool {
	if s.cluster == nil {
		return false
	}
	owner, ok := s.cluster.Owner(name)
	if !ok || owner == s.cluster.Self() {
		return false
	}
	s.metrics.clusterRedirects.Add(1)
	w.Header().Set("Location", owner+r.URL.Path)
	writeJSON(w, http.StatusTemporaryRedirect, api.RedirectPayload{
		Error: fmt.Sprintf("document %q is placed on %s", name, owner),
		Doc:   name,
		Owner: owner,
	})
	return true
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController can reach
// its Flusher and deadline hooks — the replication stream handler needs
// both through the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestTraceID extracts a usable trace ID from the request, generating
// one when the caller sent none (or sent something abusive: over-long or
// containing control characters).
func requestTraceID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get(api.TraceIDHeader))
	if id == "" || len(id) > trace.MaxIDLen {
		return trace.GenID()
	}
	for _, c := range id {
		if c < 0x20 || c == 0x7f {
			return trace.GenID()
		}
	}
	return id
}

// instrument wraps a handler with request tracing plus per-endpoint request
// counting and latency observation. Each request gets a Trace (honoring an
// incoming X-Trace-Id, always echoing the ID in the response header)
// carried via the request context; when the handler returns, the trace is
// sealed, its spans feed the stage-duration histograms, the completed trace
// lands in the /debug/traces ring (except traces of /debug/traces itself),
// and requests over the slow threshold are logged in full.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := trace.New(requestTraceID(r), endpoint)
		tr.SetDoc(r.PathValue("name"))
		w.Header().Set(api.TraceIDHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(trace.NewContext(r.Context(), tr)))
		tr.Finish(sw.status)
		dur := tr.Duration()
		s.metrics.observeRequest(endpoint, sw.status, dur)
		s.metrics.observeSpans(tr.Spans())
		if endpoint != "traces" {
			s.traces.Add(tr)
		}
		if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
			s.metrics.slowRequests.Add(1)
			s.logger.Warn("slow request",
				"trace_id", tr.ID, "endpoint", endpoint, "doc", tr.Doc(),
				"status", sw.status, "duration", dur, "spans", spanAttrs(tr.Spans()))
		} else {
			s.logger.Debug("request",
				"trace_id", tr.ID, "endpoint", endpoint, "doc", tr.Doc(),
				"status", sw.status, "duration", dur)
		}
	}
}

// spanAttrs renders spans as a compact stage=duration list for log records.
func spanAttrs(spans []trace.Span) string {
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", sp.Stage, sp.Duration)
	}
	return b.String()
}

// maxBodyBytes bounds request bodies; documents arrive inline in load
// requests, so the cap is generous.
const maxBodyBytes = 64 << 20

// readJSON decodes a request body into v, answering 400 when it cannot.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(w, r, v); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// decodeJSON decodes a request body into v. w is only used to cap the
// body at maxBodyBytes.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: invalid JSON body: %v", ErrBadRequest, err)
	}
	return nil
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps store errors to HTTP statuses and writes the JSON error
// envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownDocument):
		status = http.StatusNotFound
	case errors.Is(err, ErrStaleGeneration):
		status = http.StatusConflict
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrReadOnly):
		status = http.StatusForbidden
	}
	writeJSON(w, status, api.Error{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:        "ok",
		Documents:     s.store.Count(),
		Durable:       s.store.Durable(),
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		ReadOnly:      s.readOnly.Load(),
	}
	if f := s.currentFollower(); f != nil && h.ReadOnly {
		st := f.Status()
		h.Replication = &st
	}
	if fences := s.store.Fences(); len(fences) > 0 {
		h.Fences = fences
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w)
	s.store.WriteCacheMetrics(w)
	s.store.WriteFreezeMetrics(w)
	s.store.WriteQueryStatsMetrics(w)
	if f := s.currentFollower(); f != nil && s.readOnly.Load() {
		f.WriteMetrics(w)
	}
	if s.cluster != nil {
		s.cluster.WriteMetrics(w)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := s.store.List()
	for i := range infos {
		s.decorateReplicaInfo(&infos[i])
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.redirectNonOwner(w, r, r.PathValue("name")) || s.rejectReadOnly(w) {
		return
	}
	var req api.LoadRequest
	if !readJSON(w, r, &req) {
		return
	}
	info, err := s.store.Load(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Info(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.decorateReplicaInfo(&info)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.redirectNonOwner(w, r, r.PathValue("name")) || s.rejectReadOnly(w) {
		return
	}
	if err := s.store.Delete(r.Context(), r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQuery serves POST /docs/{name}/query under Config.RequestTimeout,
// with TimeoutHandler's contract but without its response buffer. A worker
// goroutine decodes the request, runs the query and builds the body under
// the deadline; the handler then writes the body once, with its length. At
// the deadline the handler answers 503 with timeoutBody, while the query
// runs on to completion and its worker returns the pooled buffer nobody
// read. A panic in the worker is re-raised here.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	answers := make(chan queryAnswer)
	go s.answerQuery(ctx, w, r, answers)
	select {
	case a := <-answers:
		if a.panic != nil {
			panic(a.panic)
		}
		defer a.release()
		if a.err != nil {
			writeError(w, a.err)
			return
		}
		endWrite := trace.Start(ctx, trace.StageWrite)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(a.body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(a.body) // a failed write means the client is gone
		endWrite()
	case <-ctx.Done():
		w.WriteHeader(http.StatusServiceUnavailable)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			_, _ = io.WriteString(w, timeoutBody)
		}
	}
}

// queryAnswer is a /query worker's outcome.
type queryAnswer struct {
	body  []byte
	buf   *[]byte // pooled buffer holding body; nil when body is a cache entry's
	err   error
	panic any
}

func (a *queryAnswer) release() {
	if a.buf != nil {
		putBody(a.buf)
	}
}

// answerQuery is handleQuery's worker: it hands its answer to out, or
// releases it once ctx is done and the handler has stopped listening.
func (s *Server) answerQuery(ctx context.Context, w http.ResponseWriter, r *http.Request, out chan<- queryAnswer) {
	var a queryAnswer
	defer func() {
		if p := recover(); p != nil {
			a = queryAnswer{panic: p}
		}
		select {
		case out <- a:
		case <-ctx.Done():
			a.release()
			if a.panic != nil {
				s.logger.Error("query panicked after its deadline", "trace_id", trace.ID(ctx), "panic", a.panic)
			}
		}
	}()
	endDecode := trace.Start(ctx, trace.StageDecode)
	var req api.QueryRequest
	a.err = decodeJSON(w, r, &req)
	endDecode()
	if a.err == nil {
		a.body, a.buf, a.err = s.queryBody(ctx, r.PathValue("name"), req, explainParam(r))
	}
}

// queryBody runs a /query request and returns its JSON body. A nodes-mode
// cache hit without explain answers with the entry's memoized bytes (buf
// nil); any other answer is encoded into a pooled buffer returned in buf.
func (s *Server) queryBody(ctx context.Context, name string, req api.QueryRequest, explain bool) (body []byte, buf *[]byte, err error) {
	resp, hit, err := s.store.queryMode(ctx, name, req.XPath, req.Mode, explain)
	switch {
	case err != nil:
		return nil, nil, err
	case hit != nil:
		body, err = hit.hitBody(ctx)
	default:
		endEncode := trace.Start(ctx, trace.StageEncode)
		buf = bodyPool.Get().(*[]byte)
		body, err = api.AppendQueryResponse((*buf)[:0], resp)
		*buf = body
		endEncode()
		if err != nil {
			putBody(buf)
			buf = nil
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("encode query response: %w", err)
	}
	return body, buf, nil
}

// bodyPool recycles /query response buffers, so a miss does not allocate
// its body afresh; cache hits answer from their entry's own bytes.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers bodyPool keeps, so one outsized answer
// does not stay resident.
const maxPooledBody = 4 << 20

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// explainParam reads the ?explain=1 query flag. Explain rides on a URL
// parameter rather than a body field so the body schema (and the
// DisallowUnknownFields contract) stays unchanged.
func explainParam(r *http.Request) bool {
	v := r.URL.Query().Get("explain")
	return v == "1" || v == "true"
}

// handleQueryStream serves POST /docs/{name}/query/stream: the query result
// as NDJSON — one StreamHeader line, then StreamChunk lines, flushed as
// they materialize. The endpoint lives outside the request-timeout wrapper
// (TimeoutHandler buffers the whole body, which would defeat streaming);
// errors after the first line can only abort the stream, so clients treat a
// body without a Done chunk as failed.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Mode != api.QueryModeNodes {
		writeError(w, fmt.Errorf("%w: streaming delivers nodes; use /query for mode %q", ErrBadRequest, req.Mode))
		return
	}
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	var buf []byte
	wrote := false
	emit := func(v any) error {
		if !wrote {
			wrote = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if c, ok := v.(api.StreamChunk); ok {
			var err error
			if buf, err = api.AppendStreamChunk(buf[:0], &c); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		} else if err := enc.Encode(v); err != nil {
			return err
		}
		return rc.Flush()
	}
	err := s.store.QueryStream(r.Context(), r.PathValue("name"), req.XPath, explainParam(r), emit)
	if err != nil && !wrote {
		writeError(w, err)
		return
	}
	if err != nil {
		s.logger.Warn("query stream aborted", "doc", r.PathValue("name"), "err", err)
	}
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) {
	var req api.RelationRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.store.Relation(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.redirectNonOwner(w, r, r.PathValue("name")) || s.rejectReadOnly(w) {
		return
	}
	var req api.UpdateRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.store.Update(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleUpdateBatch(w http.ResponseWriter, r *http.Request) {
	if s.redirectNonOwner(w, r, r.PathValue("name")) || s.rejectReadOnly(w) {
		return
	}
	var req api.BatchUpdateRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.store.UpdateBatch(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	// Echo the effective trace ID in the body: the same ID tags the batch's
	// journal record, so it reappears as replica_apply on every follower.
	resp.TraceID = trace.ID(r.Context())
	// 200 even for a partially applied batch (Failed >= 0): ops before the
	// failing one are applied and their results must reach the client.
	writeJSON(w, http.StatusOK, resp)
}

// Start listens on cfg.Addr and serves in a background goroutine. It
// returns the bound address (useful with ":0"). Stop the server with
// Shutdown.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	if err := s.startDebug(); err != nil {
		ln.Close()
		return "", fmt.Errorf("server: debug listener: %w", err)
	}
	s.ln = ln
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpSrv.Serve(ln) }()
	s.startFollower()
	if s.cluster != nil {
		s.cluster.Start()
	}
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting connections, waits up to ShutdownGrace for
// in-flight requests to complete, then writes a final snapshot of every
// durable document — the graceful half of the service's lifecycle contract.
func (s *Server) Shutdown(ctx context.Context) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ShutdownGrace)
		defer cancel()
	}
	s.stopDebug()
	s.stopReplication()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.store.Close()
		return err
	}
	if s.serveErr != nil {
		err := <-s.serveErr
		s.serveErr = nil // a repeated Shutdown must not block on the drained channel
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.store.Close()
			return err
		}
	}
	return s.store.Close()
}

// ListenAndServe runs the server until ctx is canceled, then shuts down
// gracefully. It is the blocking entry point cmd/labeld uses.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if err := s.startDebug(); err != nil {
		ln.Close()
		return fmt.Errorf("server: debug listener: %w", err)
	}
	s.ln = ln
	errc := make(chan error, 1)
	go func() { errc <- s.httpSrv.Serve(ln) }()
	s.startFollower()
	if s.cluster != nil {
		s.cluster.Start()
	}
	select {
	case err := <-errc:
		s.stopDebug()
		s.stopReplication()
		return err
	case <-ctx.Done():
	}
	s.stopDebug()
	s.stopReplication()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := s.httpSrv.Shutdown(shutdownCtx); err != nil {
		s.store.Close()
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.store.Close()
		return err
	}
	return s.store.Close()
}
