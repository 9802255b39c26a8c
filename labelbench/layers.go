package main

// The per-layer split of a traced run. Layer costs come from timing calls
// into each module's public functions on the run's own generated inputs;
// server-side counters come from labeld's /metrics, and stage times from
// the /debug/traces spans of the traced phase. Nothing here adds
// instrumentation to labeld.

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/parallel"
	"primelabel/internal/rdb"
	"primelabel/internal/server"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/trace"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// Repetition counts of the in-process timings; README.md says which
// median or mean each layer metric takes over them.
const (
	buildReps  = 5
	queryReps  = 15
	updateReps = 60 // insert positions replayed when the plain phase wrote nothing
	fsyncReps  = 60
)

// labeldCache is labeld's default -cache capacity.
const labeldCache = 256

// spanStages are the trace stages reported as stage.<name>_us.
var spanStages = []string{
	trace.StageLockWait, trace.StageCacheLookup, trace.StageXPathEval,
	trace.StageRelabel, trace.StageReindex, trace.StageJournalAppend,
	trace.StageJournalGroupWait, trace.StageJournalFsync,
	trace.StageStreamFirstByte, trace.StageStreamWrite,
}

// mixEntry is one (query, read kind) pair of a workload's read mix.
type mixEntry struct {
	q    int
	kind reqKind
}

// readMix is the workload's non-streamed read mix, each pair weighted
// equally as the clients' rotation weights it.
func readMix(w *workload, in *inputs) []mixEntry {
	kinds := map[reqKind]bool{}
	for i := 0; i < 4; i++ {
		if k := w.readKind(i); k != kindStream {
			kinds[k] = true
		}
	}
	var mix []mixEntry
	for q := range in.queries {
		for _, k := range []reqKind{kindFull, kindCount} {
			if kinds[k] {
				mix = append(mix, mixEntry{q, k})
			}
		}
	}
	return mix
}

func mode(k reqKind) string {
	if k == kindCount {
		return api.QueryModeCount
	}
	return api.QueryModeNodes
}

// timed runs fn reps times and returns the median duration.
func timed(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer measures the per-layer split of a traced run.
func perLayer(w *workload, in *inputs, workdir string, plain, traced *phaseResult) (map[string]metric, error) {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ctx := context.Background()
	mix := readMix(w, in)

	// Set-up layers: parse, label, index.
	xml := in.doc.String()
	var doc *xmltree.Document
	var err error
	put("xmlparse.parse_ms", ms(timed(buildReps, func() {
		doc, err = xmlparse.ParseDocument(strings.NewReader(xml), xmlparse.Options{})
	})), "ms")
	if err != nil {
		return nil, err
	}
	var lab *prime.Labeling
	put("prime.label_ms", ms(timed(buildReps, func() {
		lab, err = (prime.Scheme{Opts: primeOptions}).New(doc)
	})), "ms")
	if err != nil {
		return nil, err
	}
	var table *rdb.Table
	put("rdb.index_ms", ms(timed(buildReps, func() { table = newTable(lab) })), "ms")

	// Read layers, per query of the Table 2 rotation.
	var execUS []float64
	var candidates, rowCount int
	results := make([][]*xmltree.Node, len(in.queries))
	for q, query := range in.queries {
		var rows rdb.RowSet
		var stats rdb.ExecStats
		execUS = append(execUS, us(timed(queryReps, func() {
			rows, stats, err = table.ExecPathStringStats(query)
		})))
		if err != nil {
			return nil, err
		}
		candidates += stats.Candidates
		rowCount += len(rows)
		results[q] = table.Nodes(rows)
	}
	put("rdb.exec_us", mean(execUS), "us")
	put("rdb.candidates_per_row", float64(candidates)/float64(max(rowCount, 1)), "ratio")
	put("prime.max_label_bits_us", us(timed(queryReps, func() { lab.MaxLabelBits() })), "us")
	pathNS := float64(timed(buildReps, func() {
		for _, ns := range results {
			for _, n := range ns {
				xmltree.PathTo(n)
			}
		}
	}))
	labelNS := float64(timed(buildReps, func() {
		for _, ns := range results {
			for _, n := range ns {
				_ = lab.LabelOf(n).String()
			}
		}
	}))
	put("xmltree.path_to_ns_per_row", pathNS/float64(max(rowCount, 1)), "ns")
	put("prime.label_string_ns_per_row", labelNS/float64(max(rowCount, 1)), "ns")

	// Encoding of the responses the workload's reads receive.
	o, err := newOracle(in)
	if err != nil {
		return nil, err
	}
	var encUS, encBytes []float64
	for _, e := range mix {
		resp := &api.QueryResponse{Count: len(o.want[e.q]), Cached: w.cache >= 0 && w.writer < 0}
		if e.kind == kindFull {
			resp.Nodes = o.want[e.q]
		}
		var b []byte
		encUS = append(encUS, us(timed(queryReps, func() { b, err = json.Marshal(resp) })))
		if err != nil {
			return nil, err
		}
		encBytes = append(encBytes, float64(len(b)))
	}
	put("api.encode_us", mean(encUS), "us")
	put("api.resp_bytes", mean(encBytes), "B")

	// The whole in-process read path, with the workload's cache setting;
	// ordered-update reads miss (every write bumps the generation), so
	// its store runs with the cache off.
	cacheCap := w.cache
	switch {
	case w.writer >= 0:
		cacheCap = -1
	case cacheCap == 0:
		cacheCap = labeldCache
	}
	storeUS, err := storeQuery(ctx, in, mix, cacheCap)
	if err != nil {
		return nil, err
	}
	put("store.query_us", storeUS, "us")
	httpMean := mean(plain.latencies(isQuery)) * 1e3
	put("http.rest_us", httpMean-storeUS-mean(encUS), "us")

	// Server counters over the plain phase.
	put("store.cache_hit_ratio", cacheHitRatio(plain), "ratio")
	put("store.parallel_fanouts", plain.delta("labeld_query_parallel_fanouts_total")/max(plain.delta("labeld_queries_total"), 1), "1/query")
	put("store.gc_per_kreq", plain.delta("labeld_go_gc_cycles_total")/max(float64(len(plain.samples))/1000, 1e-3), "1/kreq")
	updates, fsyncs := plain.delta("labeld_updates_total"), plain.delta("labeld_journal_fsyncs_total")
	put("persist.updates_per_fsync", ratioOrZero(updates, fsyncs), "count")
	put("persist.journal_bytes_per_update", ratioOrZero(plain.delta("labeld_journal_bytes_total"), updates), "B")

	// Write layers over the same insert slots the plain phase wrote.
	pairs := plain.count(kindInsert)
	if pairs == 0 {
		pairs = updateReps
	}
	if err := updateLayers(ctx, in, workdir, lab, pairs, put); err != nil {
		return nil, err
	}

	traceLayers(plain, traced, put)
	for q, id := range in.ids {
		lat := plain.latencies(func(s *sample) bool { return isQuery(s) && s.q == q })
		put("tmpl."+id+"_p50_ms", quantile(lat, 0.5), "ms")
	}
	return out, nil
}

// newTable builds and warms an element table configured as labeld
// configures it.
func newTable(lab *prime.Labeling) *rdb.Table {
	t := rdb.Build(lab)
	t.Plan = rdb.Extent
	t.Parallelism = parallel.Workers(0)
	t.Warm()
	return t
}

func ratioOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// storeQuery is the mean, over the read mix, of the median in-process
// Store.QueryMode time.
func storeQuery(ctx context.Context, in *inputs, mix []mixEntry, cacheCap int) (float64, error) {
	st := server.NewStore(server.NewMetrics(), cacheCap)
	st.SetParallelism(0)
	if _, err := st.Load(ctx, docName, loadRequest(in.doc.String())); err != nil {
		return 0, err
	}
	for _, e := range mix { // warm-up, as in the HTTP set-up
		if _, err := st.QueryMode(ctx, docName, in.queries[e.q], mode(e.kind), false); err != nil {
			return 0, err
		}
	}
	var per []float64
	var err error
	for _, e := range mix {
		per = append(per, us(timed(queryReps, func() {
			_, err = st.QueryMode(ctx, docName, in.queries[e.q], mode(e.kind), false)
		})))
		if err != nil {
			return 0, err
		}
	}
	return mean(per), nil
}

// updateLayers times the write path's layers over the first pairs
// insert-and-delete pairs of the workload's positions: the labeling's
// insert (prime + SC table), the element table's patch, the journal's
// append and fsync'd commit, a snapshot, and the whole durable
// Store.Update.
func updateLayers(ctx context.Context, in *inputs, workdir string, base *prime.Labeling, pairs int, put func(string, float64, string)) error {
	doc := in.doc.Clone()
	lab, err := (prime.Scheme{Opts: primeOptions}).New(doc)
	if err != nil {
		return err
	}
	table := newTable(lab)
	elems := xmltree.Elements(doc.Root)
	var insertUS, patchUS []float64
	relabeled := 0
	for i := 0; i < pairs; i++ {
		pos := in.updates[i%len(in.updates)]
		parent := elems[pos.parent]
		n := xmltree.NewElement("speech")
		start := time.Now()
		count, err := lab.InsertChildAt(parent, rawChildIndex(parent, pos.index), n)
		insertUS = append(insertUS, us(time.Since(start)))
		if err != nil {
			return err
		}
		relabeled += count
		start = time.Now()
		row, _ := table.InsertPos(n)
		rank, err := lab.OrderOf(n)
		if err != nil {
			return err
		}
		table.PatchInsert(row, n, rank, lab.SCTable().LastShift().Delta)
		patchUS = append(patchUS, us(time.Since(start)))
		removed := xmltree.Elements(n)
		if err := lab.Delete(n); err != nil {
			return err
		}
		start = time.Now()
		table.PatchDelete(row, removed)
		patchUS = append(patchUS, us(time.Since(start)))
	}
	put("prime.insert_us", median(insertUS), "us")
	put("prime.relabeled_per_update", float64(relabeled)/float64(pairs), "count")
	put("rdb.patch_us", mean(patchUS), "us")

	dir, err := os.MkdirTemp(workdir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := persist.Open(dir, true)
	if err != nil {
		return err
	}
	j, err := mgr.CreateJournal(docName)
	if err != nil {
		return err
	}
	var appendUS, commitUS []float64
	for i := 0; i < fsyncReps; i++ {
		pos := in.updates[i%len(in.updates)]
		rec := persist.Record{Gen: uint64(i + 1), Count: 1, Req: api.UpdateRequest{Op: api.OpInsert, Parent: pos.parent, Index: pos.index, Tag: "speech"}}
		start := time.Now()
		st, err := j.Append(ctx, rec)
		appendUS = append(appendUS, us(time.Since(start)))
		if err != nil {
			j.Close()
			return err
		}
		start = time.Now()
		_, err = j.Commit(ctx, st.Seq)
		commitUS = append(commitUS, us(time.Since(start)))
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	put("persist.append_us", median(appendUS), "us")
	put("persist.commit_us", median(commitUS), "us")
	put("persist.snapshot_ms", ms(timed(3, func() {
		_, err = mgr.WriteSnapshot(ctx, persist.Meta{Name: docName, Planner: "extent"}, base)
	})), "ms")
	if err != nil {
		return err
	}

	// The whole durable write path in process.
	storeDir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	smgr, err := persist.Open(storeDir, true)
	if err != nil {
		return err
	}
	st := server.NewStore(server.NewMetrics(), labeldCache)
	st.EnablePersistence(smgr, 0)
	if _, err := st.Load(ctx, docName, loadRequest(in.doc.String())); err != nil {
		return err
	}
	var updUS []float64
	for i := 0; i < pairs; i++ {
		pos := in.updates[i%len(in.updates)]
		start := time.Now()
		resp, err := st.Update(ctx, docName, api.UpdateRequest{Op: api.OpInsert, Parent: pos.parent, Index: pos.index, Tag: "speech"})
		updUS = append(updUS, us(time.Since(start)))
		if err != nil {
			return err
		}
		start = time.Now()
		_, err = st.Update(ctx, docName, api.UpdateRequest{Op: api.OpDelete, Target: resp.Node})
		updUS = append(updUS, us(time.Since(start)))
		if err != nil {
			return err
		}
	}
	put("store.update_us", mean(updUS), "us")
	return st.Close()
}

// traceLayers derives the span-based metrics of the traced phase and the
// tracing overhead against the plain phase.
func traceLayers(plain, traced *phaseResult, put func(string, float64, string)) {
	sum := make(map[string]float64)
	seen := make(map[string]int)
	var covered, total float64
	for i := range traced.samples {
		tr := traced.samples[i].trace
		if tr == nil {
			continue
		}
		present := make(map[string]bool)
		type span struct{ lo, hi float64 }
		var spans []span
		for _, sp := range tr.Spans {
			sum[sp.Stage] += sp.DurationMS
			present[sp.Stage] = true
			spans = append(spans, span{sp.OffsetMS, sp.OffsetMS + sp.DurationMS})
		}
		for st := range present {
			seen[st]++
		}
		// Spans nest (stream_first_byte contains lock_wait and
		// xpath_eval), so coverage is the union of their intervals.
		sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
		end := 0.0
		for _, sp := range spans {
			lo := max(sp.lo, end)
			if sp.hi > lo {
				covered += sp.hi - lo
				end = sp.hi
			}
		}
		total += tr.DurationMS
	}
	for _, st := range spanStages {
		v := 0.0
		if seen[st] > 0 {
			v = sum[st] / float64(seen[st]) * 1e3
		}
		put("stage."+st+"_us", v, "us")
	}
	put("stage.uncovered_frac", 1-ratioOrZero(covered, total), "ratio")

	overhead := func(keep func(*sample) bool) float64 {
		return ratioOrZero(quantile(traced.latencies(keep), 0.5), quantile(plain.latencies(keep), 0.5)) - 1
	}
	put("trace.query_p50_overhead_frac", overhead(isQuery), "ratio")
	put("trace.query_per_s_overhead_frac", 1-ratioOrZero(traced.perSecond(isRead), plain.perSecond(isRead)), "ratio")
}
