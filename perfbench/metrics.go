package main

import (
	"fmt"
	"time"

	"pqgram/internal/obs"
)

// metricSpec names one reported metric. The lists below are the
// contract with BENCHMARK.json; the smoke test holds them equal.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the server sees, measured at the
// client over loopback with tracing off. ops_per_s and the per-kind
// latencies are medians over one-second slices of the load (see run);
// heap_mb is the live heap of a server just set up, after a forced GC,
// less the generator's own.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"lookup_ms", "ms", "lower"},
	{"topk_ms", "ms", "lower"},
	{"update_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Times are means per operation
// of the layer; counts are per operation unless named otherwise. A layer
// the workload does not reach reports 0. serve.other_self_ms is handler
// time not covered by a timed layer below it: JSON and XML codec,
// validation and admission wait, and on update-churn also the store work
// no instrument times — promoting a flushed document back into the
// memtable (segment bag read and decode) and encoding the journal record.
var perLayer = []metricSpec{
	{"http.self_ms", "ms", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.other_self_ms", "ms", "lower"},
	{"serve.query_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_invalidations_per_write", "1/write", "lower"},
	{"serve.batch_joined_ratio", "ratio", "higher"},
	{"serve.shed", "count", "lower"},
	{"profile.build_ms", "ms", "lower"},
	{"profile.grams_per_build", "count", "lower"},
	{"forest.read_ms", "ms", "lower"},
	{"forest.candidates_per_lookup", "count", "lower"},
	{"forest.abandoned_per_lookup", "count", "higher"},
	{"forest.metric_nodes_per_topk", "count", "lower"},
	{"forest.tier_segments_per_lookup", "count", "lower"},
	{"forest.tier_postings_per_lookup", "count", "lower"},
	{"forest.bloom_skip_ratio", "ratio", "higher"},
	{"forest.update_ms", "ms", "lower"},
	{"core.delta_ms", "ms", "lower"},
	{"core.delta_grams_per_update", "count", "lower"},
	{"store.append_ms", "ms", "lower"},
	{"store.append_bytes_per_update", "B", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.flushes", "count", "lower"},
	{"store.segments", "count", "lower"},
	{"store.disk_mb", "MB", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_per_kop", "1/kop", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// deltas is the difference of two collector snapshots.
type deltas struct{ before, after obs.Snapshot }

func (d deltas) count(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// hist returns the histogram's observation count and summed nanoseconds.
func (d deltas) hist(name string) (n, sumNS float64) {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const nsPerMS = float64(time.Millisecond)

// layerMetrics derives the per-layer breakdown of a traced window. Layers
// the benchmark wraps itself (the HTTP round trip and the handler) come
// from the paired spans; layers reachable only through another layer's
// call come from the collector deltas of the program's own instruments at
// their entry points.
func layerMetrics(w workload, win *window) (map[string]metric, parity) {
	d := deltas{win.before, win.after}
	reads := float64(win.ok(kindLookup) + win.ok(kindTopK))
	writes := float64(win.ok(kindUpdate))
	ops := reads + writes

	srv := make(map[string]serverSpan, len(win.spans))
	for _, sp := range win.spans {
		srv[sp.id] = sp
	}
	var par parity
	var handlerNS, selfNS, requests float64
	for _, c := range win.clients {
		for _, cs := range c.spans {
			ss, ok := srv[cs.id]
			if !ok {
				par.missingSpans++
				continue
			}
			if ss.start < cs.start || ss.end > cs.end {
				par.unnested++
			}
			requests++
			handlerNS += float64(ss.end - ss.start)
			selfNS += float64((cs.end - cs.start) - (ss.end - ss.start))
		}
	}

	var coreNS, deltaGrams float64
	for _, c := range win.clients {
		coreNS += float64(c.deltaMicros) * 1e3
		deltaGrams += float64(c.deltaGrams)
	}
	_, queryNS := d.hist("serve_lookup_ns")
	builds, buildNS := d.hist("profile_build_ns")
	lookups, readNS := d.hist("forest_lookup_ns")
	_, updateNS := d.hist("forest_update_ns")
	appends, appendNS := d.hist("store_journal_append_ns")
	flushes, flushNS := d.hist("store_segment_flush_ns")
	// The in-memory engine's forest.Update computes the core delta inside
	// its timed span; the store computes it before calling the forest.
	applyNS := updateNS
	if !w.segmented {
		applyNS -= coreNS
	}
	nestedNS := queryNS + buildNS + coreNS + applyNS + appendNS + flushNS

	par.httpRequests = int64(d.count("http_requests"))
	par.serveRequests = int64(d.count("serve_requests"))
	par.forestUpdates = int64(d.count("forest_updates"))
	par.profileBuilds = int64(d.count("profile_builds"))
	par.answered = int64(win.sum(func(c *client) int { return c.answered[kindLookup] + c.answered[kindTopK] + c.answered[kindUpdate] }))
	par.reads = int64(win.sum(func(c *client) int { return c.answered[kindLookup] + c.answered[kindTopK] }))
	par.acked = int64(win.sum(func(c *client) int { return c.acked }))
	par.handlerNS, par.nestedNS = int64(handlerNS), int64(nestedNS)

	m := map[string]metric{
		"http.self_ms":                        {ratio(selfNS, requests) / nsPerMS, "ms"},
		"serve.handler_ms":                    {ratio(handlerNS, requests) / nsPerMS, "ms"},
		"serve.other_self_ms":                 {ratio(handlerNS-nestedNS, requests) / nsPerMS, "ms"},
		"serve.query_ms":                      {ratio(queryNS, reads) / nsPerMS, "ms"},
		"serve.cache_hit_ratio":               {ratio(d.count("serve_cache_hit"), reads), "ratio"},
		"serve.cache_invalidations_per_write": {ratio(d.count("serve_cache_invalidate"), writes), "1/write"},
		"serve.batch_joined_ratio":            {ratio(d.count("serve_batch_joined"), reads), "ratio"},
		"serve.shed":                          {d.count("serve_shed"), "count"},
		"profile.build_ms":                    {ratio(buildNS, builds) / nsPerMS, "ms"},
		"profile.grams_per_build":             {ratio(d.count("profile_grams"), builds), "count"},
		"forest.read_ms":                      {ratio(readNS, lookups) / nsPerMS, "ms"},
		"forest.candidates_per_lookup":        {ratio(d.count("forest_lookup_candidates_examined"), lookups), "count"},
		"forest.abandoned_per_lookup":         {ratio(d.count("forest_lookup_pruned_abandon"), lookups), "count"},
		"forest.metric_nodes_per_topk":        {ratio(d.count("forest_metric_nodes_visited"), d.count("forest_topk_lookups")), "count"},
		"forest.tier_segments_per_lookup":     {ratio(d.count("forest_tier_segments_probed"), lookups), "count"},
		"forest.tier_postings_per_lookup":     {ratio(d.count("forest_tier_postings_scanned"), lookups), "count"},
		"forest.bloom_skip_ratio":             {ratio(d.count("forest_bloom_skips"), d.count("forest_bloom_checks")), "ratio"},
		"forest.update_ms":                    {ratio(applyNS, writes) / nsPerMS, "ms"},
		"core.delta_ms":                       {ratio(coreNS, writes) / nsPerMS, "ms"},
		"core.delta_grams_per_update":         {ratio(deltaGrams, writes), "count"},
		"store.append_ms":                     {ratio(appendNS, appends) / nsPerMS, "ms"},
		"store.append_bytes_per_update":       {ratio(d.count("store_journal_append_bytes"), writes), "B"},
		"store.flush_ms":                      {ratio(flushNS, flushes) / nsPerMS, "ms"},
		"store.flushes":                       {flushes, "count"},
		"runtime.alloc_kb_per_op":             {ratio(float64(win.ms1.TotalAlloc-win.ms0.TotalAlloc)/1024, ops), "KB"},
		"runtime.gc_per_kop":                  {ratio(float64(win.ms1.NumGC-win.ms0.NumGC)*1000, ops), "1/kop"},
	}
	return m, par
}

// parity is the traced run's accounting: the program's own counters
// must agree with what the clients sent and got back, and the spans must
// nest.
type parity struct {
	httpRequests, answered int64 // Δhttp_requests vs responses received
	serveRequests, reads   int64 // Δserve_requests vs read responses received
	profileBuilds          int64 // one query profile per read
	forestUpdates, acked   int64 // Δforest_updates vs updates acknowledged
	missingSpans           int   // client spans with no server span
	unnested               int   // server spans not inside their client span
	handlerNS, nestedNS    int64 // Σ handler time vs Σ time of the layers below it
}

// check lists every violated parity rule.
func (p parity) check() []string {
	var bad []string
	if p.httpRequests != p.answered {
		bad = append(bad, fmt.Sprintf("Δhttp_requests %d != %d responses received", p.httpRequests, p.answered))
	}
	if p.serveRequests != p.reads {
		bad = append(bad, fmt.Sprintf("Δserve_requests %d != %d read responses", p.serveRequests, p.reads))
	}
	if p.profileBuilds != p.reads {
		bad = append(bad, fmt.Sprintf("Δprofile_builds %d != %d read responses", p.profileBuilds, p.reads))
	}
	if p.forestUpdates != p.acked {
		bad = append(bad, fmt.Sprintf("Δforest_updates %d != %d updates acknowledged", p.forestUpdates, p.acked))
	}
	if p.missingSpans > 0 {
		bad = append(bad, fmt.Sprintf("%d client spans have no server span", p.missingSpans))
	}
	if p.unnested > 0 {
		bad = append(bad, fmt.Sprintf("%d server spans lie outside their client span", p.unnested))
	}
	if p.nestedNS > p.handlerNS {
		bad = append(bad, fmt.Sprintf("nested layer time %dns exceeds handler time %dns", p.nestedNS, p.handlerNS))
	}
	return bad
}
