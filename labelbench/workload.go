package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"primelabel/internal/bench"
	"primelabel/internal/datasets"
	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
	"primelabel/internal/xmltree"
)

// defaultSeed is the seed runs use unless told otherwise. A performance
// claim must also hold on seed 2.
const defaultSeed = 1

// docName is the document every workload loads into labeld.
const docName = "plays"

// clients is the closed-loop client count: each client sends its next
// request only after the previous reply's last byte arrived.
const clients = 2

// reqKind is one request type a client sends.
type reqKind int

const (
	kindFull   reqKind = iota // POST /query, full node list
	kindCount                 // POST /query, count mode
	kindStream                // POST /query/stream, NDJSON nodes
	kindInsert                // POST /update, insert a speech between sibling speeches
	kindDelete                // POST /update, delete the speech just inserted
)

var kindNames = [...]string{"full", "count", "stream", "insert", "delete"}

func (k reqKind) String() string { return kindNames[k] }

func (k reqKind) isRead() bool { return k <= kindStream }

// workload is one traffic mix against one labeld configuration.
type workload struct {
	name string
	// cache is labeld's -cache flag; 0 leaves the default (256 entries).
	cache int
	// durable runs labeld with a fresh -data-dir (fsync on, the default).
	durable bool
	// warm lists the read kinds of the set-up warm-up pass over Q1–Q9.
	warm []reqKind
	// readKind picks the i-th read of a client.
	readKind func(i int) reqKind
	// writer is the client that sends updates, -1 for none.
	writer int
}

var workloads = map[string]*workload{
	// Every request misses the cache: materialization and encoding lead.
	"table2-cold": {
		name:  "table2-cold",
		cache: -1,
		warm:  []reqKind{kindFull},
		readKind: func(i int) reqKind {
			if i%4 == 3 {
				return kindStream
			}
			return kindFull
		},
		writer: -1,
	},
	// Every request hits the cache: lookup, re-encoding and transport lead.
	"table2-hot": {
		name: "table2-hot",
		warm: []reqKind{kindFull, kindCount},
		readKind: func(i int) reqKind {
			if i%2 == 1 {
				return kindCount
			}
			return kindFull
		},
		writer: -1,
	},
	// fsync'd sibling inserts and deletes beside count-mode reads.
	"ordered-update": {
		name:     "ordered-update",
		durable:  true,
		warm:     []reqKind{kindCount},
		readKind: func(int) reqKind { return kindCount },
		writer:   0,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// updatePos places one inserted speech: it becomes the index-th element
// child of the scene at row parent, strictly between two sibling speeches.
// Each such slot is used once (until the permutation wraps): a delete
// leaves an order-number gap in its slot, and a second insert there would
// fill the gap without shifting any SC record, so reusing slots would make
// inserts cheaper the longer a run goes.
type updatePos struct {
	parent int
	index  int
}

// inputs are everything a run generates from its seed.
type inputs struct {
	seed    int64
	doc     *xmltree.Document
	elems   []*xmltree.Node // document order; a node's row is its index
	row     map[*xmltree.Node]int
	ids     []string // Q1..Q9
	queries []string // Table 2 queries as executed
	// order[c] is client c's query sequence: seeded permutations of Q1–Q9.
	order [clients][]int
	// updates are the insert slots in seeded order, used in sequence.
	updates  []updatePos
	loadBody []byte
	// readBody[kind][q] is the pre-encoded request body of a read.
	readBody [kindStream + 1][][]byte
}

// loadRequest is the labeling configuration labeld serves: prime labels
// with order tracking, under the default (extent) planner.
func loadRequest(xml string) api.LoadRequest {
	return api.LoadRequest{XML: xml, Scheme: "prime", TrackOrder: true}
}

func newInputs(seed int64, elements int) (*inputs, error) {
	in := &inputs{seed: seed, doc: datasets.PlayCorpus(seed, elements), row: make(map[*xmltree.Node]int)}
	in.elems = xmltree.Elements(in.doc.Root)
	for i, n := range in.elems {
		in.row[n] = i
	}
	for _, q := range bench.Table2Queries() {
		in.ids = append(in.ids, q.ID)
		in.queries = append(in.queries, q.Ours)
	}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		for r := 0; r < 512; r++ {
			in.order[c] = append(in.order[c], rng.Perm(len(in.queries))...)
		}
	}
	for i, n := range in.elems {
		if n.Name == "scene" {
			for k := 1; k < len(n.ElementChildren()); k++ {
				in.updates = append(in.updates, updatePos{parent: i, index: k})
			}
		}
	}
	if len(in.updates) == 0 {
		return nil, fmt.Errorf("corpus of %d elements has no scene with two speeches", elements)
	}
	rng := rand.New(rand.NewSource(seed*1000 + 999))
	rng.Shuffle(len(in.updates), func(i, j int) { in.updates[i], in.updates[j] = in.updates[j], in.updates[i] })
	var err error
	if in.loadBody, err = json.Marshal(loadRequest(in.doc.String())); err != nil {
		return nil, err
	}
	for k := kindFull; k <= kindStream; k++ {
		mode := api.QueryModeNodes
		if k == kindCount {
			mode = api.QueryModeCount
		}
		for _, q := range in.queries {
			b, err := json.Marshal(api.QueryRequest{XPath: q, Mode: mode})
			if err != nil {
				return nil, err
			}
			in.readBody[k] = append(in.readBody[k], b)
		}
	}
	return in, nil
}

// readPath is the endpoint a read kind goes to.
func readPath(k reqKind) string {
	if k == kindStream {
		return "/docs/" + docName + "/query/stream"
	}
	return "/docs/" + docName + "/query"
}

// sample is one timed request.
type sample struct {
	kind reqKind
	// q is the query index of a read, the update position index of an
	// insert, and the target row of a delete.
	q      int
	start  time.Duration // since the phase began
	lat    time.Duration // send to last body byte
	ttfb   time.Duration // streams: send to the first NDJSON line
	status int
	err    error
	size   int
	hash   uint64
	// body is kept for small responses and for the first response of
	// each distinct (kind, q, hash); checking decodes it after the phase.
	body  []byte
	trace *trace.TraceJSON
	// measured marks a request that completed inside an undisturbed
	// window; only those enter the metrics.
	measured bool
}

// phaseResult is one timed phase against one labeld.
type phaseResult struct {
	samples []sample
	windows []window
	// measured is the undisturbed time the metrics cover.
	measured time.Duration
	// before and after are /metrics scrapes bracketing the phase.
	before, after map[string]float64
	rssMB         float64
}

func (p *phaseResult) count(k reqKind) int {
	n := 0
	for i := range p.samples {
		if p.samples[i].kind == k {
			n++
		}
	}
	return n
}

// delta is a /metrics counter's growth over the phase.
func (p *phaseResult) delta(name string) float64 { return p.after[name] - p.before[name] }

// smallBody is the size up to which every response body is kept.
const smallBody = 1024

// maxKeptBytes bounds the large bodies kept for checking; past it a
// response whose bytes were never seen before cannot be checked and counts
// as failed.
const maxKeptBytes = 256 << 20

// bodyKey identifies responses that must be byte-identical.
type bodyKey struct {
	kind reqKind
	q    int
	hash uint64
}

// bodyStore keeps the first body of each distinct bodyKey, shared by the
// phase's clients.
type bodyStore struct {
	mu    sync.Mutex
	seen  map[bodyKey]bool
	bytes int
}

// keep reports whether the caller should keep a copy of a large body,
// and whether it may (the budget is not exhausted).
func (b *bodyStore) keep(k bodyKey, size int) (keep, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen[k] {
		return false, true
	}
	if b.bytes+size > maxKeptBytes {
		return false, false
	}
	b.seen[k] = true
	b.bytes += size
	return true, true
}

// runPhase drives labeld with the workload's clients for dur, the writer
// starting at insert slot firstUpdate. A traced phase tags every request with an X-Trace-Id and,
// after the reply's last byte, fetches the request's spans from
// /debug/traces.
func runPhase(hc *http.Client, srv *labeld, w *workload, in *inputs, dur time.Duration, traced bool, firstUpdate int) (*phaseResult, error) {
	p := &phaseResult{}
	var err error
	if p.before, err = scrapeMetrics(hc, srv.base); err != nil {
		return nil, err
	}
	store := &bodyStore{seen: make(map[bodyKey]bool)}
	hashSeed := maphash.MakeSeed()
	per := make([][]sample, clients)
	t0 := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &loadClient{hc: hc, base: srv.base, c: c, w: w, in: in, store: store, seed: hashSeed, traced: traced, t0: t0}
			if c == w.writer {
				cl.nextUpdate = firstUpdate
			}
			per[c] = cl.loop(stop)
		}(c)
	}
	p.windows = watchWindows(t0, dur, stop)
	wg.Wait()
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	for _, win := range p.windows {
		if win.clean {
			p.measured += win.end - win.start
		}
	}
	for i := range p.samples {
		s := &p.samples[i]
		end := s.start + s.lat
		j := sort.Search(len(p.windows), func(j int) bool { return p.windows[j].end > end })
		s.measured = j < len(p.windows) && p.windows[j].clean
	}
	if p.after, err = scrapeMetrics(hc, srv.base); err != nil {
		return nil, err
	}
	if p.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	return p, nil
}

// loadClient is one closed-loop client.
type loadClient struct {
	hc         *http.Client
	base       string
	c          int
	w          *workload
	in         *inputs
	store      *bodyStore
	seed       maphash.Seed
	traced     bool
	t0         time.Time
	buf        bytes.Buffer
	chunk      []byte
	nextUpdate int // the writer's next insert slot
}

// loop sends requests until stop is closed.
func (cl *loadClient) loop(stop <-chan struct{}) []sample {
	var out []sample
	pending := -1 // row of the speech to delete next, -1 to insert
	reads := 0
	writer := cl.c == cl.w.writer
	// The writer never stops between an insert and its delete, so the
	// document is back to its loaded shape whenever a phase ends.
	for i := 0; !closed(stop) || pending >= 0; i++ {
		var s sample
		var body []byte
		path := "/docs/" + docName + "/update"
		if writer {
			var req api.UpdateRequest
			if pending >= 0 {
				s.kind, s.q = kindDelete, pending
				req = api.UpdateRequest{Op: api.OpDelete, Target: pending}
			} else {
				s.q = cl.nextUpdate % len(cl.in.updates)
				pos := cl.in.updates[s.q]
				s.kind = kindInsert
				req = api.UpdateRequest{Op: api.OpInsert, Parent: pos.parent, Index: pos.index, Tag: "speech"}
				cl.nextUpdate++
			}
			body, _ = json.Marshal(req) // a plain struct of ints and strings cannot fail
		} else {
			s.kind = cl.w.readKind(reads)
			order := cl.in.order[cl.c]
			s.q = order[reads%len(order)]
			body = cl.in.readBody[s.kind][s.q]
			path = readPath(s.kind)
			reads++
		}
		traceID := ""
		if cl.traced {
			traceID = fmt.Sprintf("lb-%d-%d-%d", cl.in.seed, cl.c, i)
		}
		cl.send(path, body, traceID, &s)
		if s.kind == kindInsert {
			pending = -1
			var r api.UpdateResponse
			if s.err == nil && s.status == http.StatusOK && json.Unmarshal(s.body, &r) == nil && r.Node >= 0 {
				pending = r.Node
			}
		} else if s.kind == kindDelete {
			pending = -1
		}
		if cl.traced && s.err == nil {
			s.trace = fetchTrace(cl.hc, cl.base, traceID)
		}
		out = append(out, s)
	}
	return out
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// send issues one timed POST. The clock stops at the last body byte;
// hashing and copying the body happen after it.
func (cl *loadClient) send(path string, body []byte, traceID string, s *sample) {
	req, err := http.NewRequest(http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(api.TraceIDHeader, traceID)
	}
	cl.buf.Reset()
	start := time.Now()
	s.start = start.Sub(cl.t0)
	resp, err := cl.hc.Do(req)
	if err != nil {
		s.lat = time.Since(start)
		s.err = err
		return
	}
	if s.kind == kindStream {
		if cl.chunk == nil {
			cl.chunk = make([]byte, 64<<10)
		}
		for {
			n, rerr := resp.Body.Read(cl.chunk)
			if n > 0 {
				if s.ttfb == 0 && bytes.IndexByte(cl.chunk[:n], '\n') >= 0 {
					s.ttfb = time.Since(start)
				}
				cl.buf.Write(cl.chunk[:n])
			}
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
		}
	} else {
		_, err = cl.buf.ReadFrom(resp.Body)
	}
	s.lat = time.Since(start)
	resp.Body.Close()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return
	}
	b := cl.buf.Bytes()
	s.size = len(b)
	s.hash = maphash.Bytes(cl.seed, b)
	keep, ok := true, true
	if len(b) > smallBody {
		keep, ok = cl.store.keep(bodyKey{s.kind, s.q, s.hash}, len(b))
	}
	if !ok {
		s.err = fmt.Errorf("response body budget of %d MiB exhausted; answer not checkable", maxKeptBytes>>20)
		return
	}
	if keep {
		s.body = append([]byte(nil), b...)
	}
}
