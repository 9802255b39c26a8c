package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks), 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies collects the latencies (ms) of samples matching keep.
func (p *phaseResult) latencies(keep func(*sample) bool) []float64 {
	var out []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.measured && keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func isQuery(s *sample) bool  { return s.kind == kindFull || s.kind == kindCount }
func isRead(s *sample) bool   { return s.kind.isRead() }
func isUpdate(s *sample) bool { return !s.kind.isRead() }

// perSecond is the phase's completion rate of samples matching keep.
func (p *phaseResult) perSecond(keep func(*sample) bool) float64 {
	n := 0
	for i := range p.samples {
		if s := &p.samples[i]; s.measured && keep(s) {
			n++
		}
	}
	if p.measured <= 0 {
		return 0
	}
	return float64(n) / p.measured.Seconds()
}

// e2eMetrics are a plain phase's end-to-end metrics: all of them for the
// report, and the ones BENCHMARK.json gates, which every workload has.
type e2eMetrics struct {
	all, gated map[string]metric
}

// endToEnd derives the end-to-end metrics of a plain phase.
func endToEnd(w *workload, p *phaseResult, setupS float64, v *verdict) e2eMetrics {
	queries := p.latencies(isQuery)
	var readBytes, reads float64
	for i := range p.samples {
		if s := &p.samples[i]; s.measured && isRead(s) {
			readBytes += float64(s.size)
			reads++
		}
	}
	g := map[string]metric{
		"setup_s":           {setupS, "s"},
		"query_p50_ms":      {quantile(queries, 0.50), "ms"},
		"query_p99_ms":      {quantile(queries, 0.99), "ms"},
		"query_per_s":       {p.perSecond(isRead), "1/s"},
		"resp_kb_per_query": {readBytes / max(reads, 1) / 1024, "KiB"},
		"rss_peak_mb":       {p.rssMB, "MiB"},
	}
	all := make(map[string]metric, len(g)+6)
	for k, m := range g {
		all[k] = m
	}
	all["error_frac"] = metric{float64(v.failed) / float64(max(v.attempted, 1)), "ratio"}
	if w.readKind(3) == kindStream {
		var ttfb []float64
		for i := range p.samples {
			if s := &p.samples[i]; s.measured && s.kind == kindStream {
				ttfb = append(ttfb, ms(s.ttfb))
			}
		}
		all["stream_ttfb_p50_ms"] = metric{quantile(ttfb, 0.5), "ms"}
	}
	if w.writer >= 0 {
		updates := p.latencies(isUpdate)
		acked := 0.0 // the disk counters cover the whole phase, so do these
		for i := range p.samples {
			if s := &p.samples[i]; isUpdate(s) && s.err == nil && s.status == http.StatusOK {
				acked++
			}
		}
		all["update_p50_ms"] = metric{quantile(updates, 0.50), "ms"}
		all["update_p99_ms"] = metric{quantile(updates, 0.99), "ms"}
		all["update_per_s"] = metric{p.perSecond(isUpdate), "1/s"}
		disk := p.delta("labeld_journal_bytes_total") + p.delta("labeld_snapshot_bytes_total")
		all["disk_kb_per_update"] = metric{disk / max(acked, 1) / 1024, "KiB"}
	}
	return e2eMetrics{all: all, gated: g}
}

// cacheHitRatio is the share of the phase's reads labeld answered from its
// query cache.
func cacheHitRatio(p *phaseResult) float64 {
	hits, misses := p.delta("labeld_query_cache_hits_total"), p.delta("labeld_query_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// regime reports whether a plain phase stayed in the regime its workload
// exists for: every read a miss on table2-cold, every read a hit on
// table2-hot, writes and reads both served on ordered-update.
func regime(w *workload, p *phaseResult) string {
	ratio := cacheHitRatio(p)
	ok := true
	switch {
	case w.cache < 0:
		ok = ratio <= 0.05
	case w.writer >= 0:
		ok = p.count(kindInsert) > 0 && p.count(kindCount) > 0
	default:
		ok = ratio >= 0.95
	}
	state := "ok"
	if !ok {
		state = "DRIFTED"
	}
	return fmt.Sprintf("%s store.cache_hit_ratio=%.4f", state, ratio)
}
