package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// tailQuantile is the tail percentile the human-readable report prints.
const tailQuantile = 0.95

// window is one measured interval of closed-loop load.
type window struct {
	clients  []*client
	dur      time.Duration
	before   obs.Snapshot
	after    obs.Snapshot
	ms0, ms1 runtime.MemStats
	spans    []serverSpan // traced windows only
}

func (w *window) sum(f func(c *client) int) int {
	n := 0
	for _, c := range w.clients {
		n += f(c)
	}
	return n
}

func (w *window) ok(k kind) int {
	return w.sum(func(c *client) int { return len(c.lat[k]) })
}

func (w *window) okOps() int { return w.ok(kindLookup) + w.ok(kindTopK) + w.ok(kindUpdate) }

func (w *window) latencies(k kind) ([]float64, int) {
	var lat []float64
	failed := 0
	for _, c := range w.clients {
		lat = append(lat, c.lat[k]...)
		failed += c.failed[k]
	}
	return lat, failed
}

// verdict accumulates attempted/failed operations and check failures.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func run(cfg config, log io.Writer) (output, error) {
	w := workloads[cfg.Workload]
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return output{}, err
	}
	in, err := makeInputs(cfg, w)
	if err != nil {
		return output{}, fmt.Errorf("generating inputs: %w", err)
	}
	col := obs.NewCollector()
	profile.SetCollector(col)
	defer profile.SetCollector(nil)
	fmt.Fprintf(log, "workload %s seed %d: %d documents, %d clients, GOMAXPROCS %d\n",
		cfg.Workload, cfg.Seed, len(in.ids), clients, runtime.GOMAXPROCS(0))
	if cfg.Trace {
		return runTraced(cfg, w, in, col, log)
	}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Each trial sets a fresh server up from the generated inputs and
	// measures an equal share of the load. Set-up time and heap are
	// medians over trials. Throughput and latencies are medians over the
	// whole slices of every trial's window: a slice's throughput is the
	// requests completed in it, its latency per kind the mean over those
	// requests. A slice's mean smooths the mixtures inside one workload
	// (cache hits and misses, updates that do or do not flush), where a
	// median of single requests jumps between modes from run to run; the
	// median over slices then ignores the seconds in which a shared host
	// lent the benchmark less than its cores.
	var v verdict
	var wins []*window
	var setups, heaps []float64
	var sl []sliceStat
	for t := 0; t < cfg.Trials; t++ {
		if err := in.resetModels(); err != nil {
			return output{}, err
		}
		s, d, err := startServer(cfg, w, in, col, false, t)
		if err != nil {
			return output{}, fmt.Errorf("set-up %d: %w", t, err)
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
		var ready runtime.MemStats
		runtime.ReadMemStats(&ready)
		heaps = append(heaps, (float64(ready.HeapAlloc)-float64(base.HeapAlloc))/(1<<20))
		win, err := measure(w, in, s, cfg.Seconds/float64(cfg.Trials), t)
		if err != nil {
			s.stop()
			return output{}, err
		}
		sl = append(sl, win.slices(cfg.Slice)...)
		checkWindow(w, in, s, win, &v, log)
		if err := s.stop(); err != nil {
			return output{}, err
		}
		report(log, fmt.Sprintf("trial %d", t), win)
		wins = append(wins, win)
		runtime.GC()
	}
	if w.shadow {
		checkSamples(in, wins, &v, log)
	}
	fmt.Fprintf(log, "setups (s): %v\nheap after set-up (MB): %v\n", setups, heaps)

	var rates []float64
	var means [numKinds][]float64
	for _, x := range sl {
		rates = append(rates, x.opsPerS)
		for k := kind(0); k < numKinds; k++ {
			if x.n[k] > 0 {
				means[k] = append(means[k], x.meanMS[k])
			}
		}
	}
	fmt.Fprintf(log, "%d slices of %v; ops/s per slice: %.1f\n", len(sl), cfg.Slice, rates)
	m := map[string]metric{
		"setup_s":   {median(setups), "s"},
		"ops_per_s": {median(rates), "op/s"},
		"heap_mb":   {median(heaps), "MB"},
	}
	for k := kind(0); k < numKinds; k++ {
		m[kindNames[k]+"_ms"] = metric{median(means[k]), "ms"}
		if len(means[k]) < cfg.MinSlices {
			v.fail("%s: completed in %d slices, a median needs %d", kindNames[k], len(means[k]), cfg.MinSlices)
		}
	}
	return finish(v, m, log), nil
}

// runTraced measures an untraced and a traced window of --seconds/2 each,
// from identical initial state, and reports the traced one layer by layer.
func runTraced(cfg config, w workload, in *inputs, col *obs.Collector, log io.Writer) (output, error) {
	var v verdict
	var wins [2]*window
	var disk int64
	var segments int64
	for i, traced := range []bool{false, true} {
		if err := in.resetModels(); err != nil {
			return output{}, err
		}
		s, _, err := startServer(cfg, w, in, col, traced, i)
		if err != nil {
			return output{}, err
		}
		win, err := measure(w, in, s, cfg.Seconds/2, 0)
		if err != nil {
			s.stop()
			return output{}, err
		}
		if traced {
			if disk, err = s.diskBytes(); err != nil {
				s.stop()
				return output{}, err
			}
			segments = win.after.Gauges["store_segment_count"]
		}
		checkWindow(w, in, s, win, &v, log)
		if err := s.stop(); err != nil {
			return output{}, err
		}
		report(log, map[bool]string{false: "untraced window", true: "traced window"}[traced], win)
		wins[i] = win
	}
	if w.shadow {
		checkSamples(in, wins[:], &v, log)
	}
	tw := wins[1]
	lm, par := layerMetrics(w, tw)
	lm["store.segments"] = metric{float64(segments), "count"}
	lm["store.disk_mb"] = metric{float64(disk) / (1 << 20), "MB"}
	untracedRate := float64(wins[0].okOps()) / wins[0].dur.Seconds()
	tracedRate := float64(tw.okOps()) / tw.dur.Seconds()
	lm["trace.overhead_ratio"] = metric{untracedRate/tracedRate - 1, "ratio"}
	for _, p := range par.check() {
		v.fail("parity: %s", p)
	}
	if err := writeSpans(cfg, tw); err != nil {
		return output{}, err
	}
	return finish(v, lm, log), nil
}

func finish(v verdict, m map[string]metric, log io.Writer) output {
	for _, p := range v.problems {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	return output{Correct: len(v.problems) == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}

// measure runs the closed loop for secs seconds and snapshots the
// collector and runtime at both edges. Windows with the same index send
// the same requests.
func measure(w workload, in *inputs, s *server, secs float64, index int) (*window, error) {
	win := &window{}
	win.before = s.col.Snapshot()
	runtime.ReadMemStats(&win.ms0)
	start := time.Now()
	if s.spans != nil {
		s.spans.record(true, start)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := newClient(c, s.url, newStream(in, w, index, c), s.spans != nil, start)
		win.clients = append(win.clients, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(&stop)
		}()
	}
	time.Sleep(time.Duration(secs * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	win.dur = time.Since(start)
	runtime.ReadMemStats(&win.ms1)
	win.after = s.col.Snapshot()
	if s.spans != nil {
		s.spans.record(false, start)
		win.spans = s.spans.spans()
	}
	for _, c := range win.clients {
		if c.err != nil {
			return nil, fmt.Errorf("client %d: %w", c.id, c.err)
		}
	}
	return win, nil
}

// sliceStat is one whole slice of a window: the requests completed in it.
type sliceStat struct {
	opsPerS float64
	meanMS  [numKinds]float64 // mean latency per kind; valid where n > 0
	n       [numKinds]int
}

// slices splits the window into whole slices of length d by completion
// time; requests completed after the last whole slice are left out.
func (w *window) slices(d time.Duration) []sliceStat {
	out := make([]sliceStat, int(w.dur/d))
	for _, c := range w.clients {
		for k := kind(0); k < numKinds; k++ {
			for i, at := range c.done[k] {
				if j := int(at / d); j < len(out) {
					out[j].n[k]++
					out[j].meanMS[k] += c.lat[k][i]
				}
			}
		}
	}
	for j := range out {
		ops := 0
		for k := kind(0); k < numKinds; k++ {
			ops += out[j].n[k]
			if out[j].n[k] > 0 {
				out[j].meanMS[k] /= float64(out[j].n[k])
			}
		}
		out[j].opsPerS = float64(ops) / d.Seconds()
	}
	return out
}

// checkWindow counts the window's operations and checks the server's
// answers against a reference forest built from the benchmark's final
// working trees. A fixed probe set from fresh seeds, and on a workload
// that draws from it the hot pool, is sent over HTTP twice: the first
// answer of a pool request may come from a result cached during the
// window, and the second of every request must come from the cache, so
// a stale or corrupted cached answer fails the check.
func checkWindow(w workload, in *inputs, s *server, win *window, v *verdict, log io.Writer) {
	for _, c := range win.clients {
		for k := kind(0); k < numKinds; k++ {
			v.attempted += c.attempted[k]
			v.failed += c.failed[k]
		}
	}
	trees := make([]*tree.Tree, len(in.models))
	for i, d := range in.models {
		trees[i] = d.tree
	}
	ref, err := referenceForest(in.ids, trees)
	if err != nil {
		v.fail("building the final reference: %v", err)
		return
	}
	reqs, err := in.fixedReads(tagProbe, probeQueries, probeTaus)
	if err != nil {
		v.fail("generating probes: %v", err)
		return
	}
	if w.hot() {
		reqs = append(reqs, in.pool...)
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for i, r := range reqs {
		want, err := in.referenceAnswer(ref, r.kind, r.qseed, r.tau)
		if err != nil {
			v.fail("probe %d reference: %v", i, err)
			continue
		}
		for _, again := range []bool{false, true} {
			v.attempted++
			status, tier, body, err := post(hc, s.url, r, fmt.Sprintf("probe-%d", i))
			if err != nil || status != http.StatusOK {
				v.failed++
				v.fail("probe %d %s: status %d: %v", i, r.path, status, err)
				continue
			}
			got, err := answerBytes(r.kind, body)
			if err == nil {
				err = compareAnswers(got, want)
			}
			if err == nil && again && tier != "hit" {
				err = fmt.Errorf("repeated request answered by %q, not the result cache", tier)
			}
			if err != nil {
				v.failed++
				v.fail("probe %d %s tau %g (repeat %v): %v", i, kindNames[r.kind], r.tau, again, err)
			}
		}
	}
	fmt.Fprintf(log, "answer check: %d probes, each sent twice, compared with the final-state reference\n", len(reqs))
}

// checkSamples compares read-cold's sampled reads, from every window of
// the run, with a reference built from the initial corpus.
func checkSamples(in *inputs, wins []*window, v *verdict, log io.Writer) {
	initial, err := in.initialTrees()
	if err != nil {
		v.fail("parsing the generated documents: %v", err)
		return
	}
	ref, err := referenceForest(in.ids, initial)
	if err != nil {
		v.fail("building the initial reference: %v", err)
		return
	}
	n := 0
	for _, win := range wins {
		for _, c := range win.clients {
			for _, sm := range c.samples {
				n++
				want, err := in.referenceAnswer(ref, sm.kind, sm.qseed, sm.tau)
				if err != nil {
					v.fail("reference answer: %v", err)
					continue
				}
				if sha256.Sum256(want) != sm.digest {
					v.failed++
					v.fail("client %d: %s (query seed %d, tau %g) differs from the reference", c.id, kindNames[sm.kind], sm.qseed, sm.tau)
				}
			}
		}
	}
	fmt.Fprintf(log, "answer check: %d sampled reads compared with the reference\n", n)
}

// initialTrees parses the generated documents afresh: the state the
// server was set up from.
func (in *inputs) initialTrees() ([]*tree.Tree, error) {
	out := make([]*tree.Tree, len(in.xml))
	for i, x := range in.xml {
		t, err := xmlconv.ParseString(x, xmlconv.Options{})
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// resetModels returns every working tree to its generated state.
func (in *inputs) resetModels() error {
	trees, err := in.initialTrees()
	for i, t := range trees {
		in.models[i].tree = t
	}
	return err
}

// referenceAnswer is the answer bytes the server must send for a read:
// the matches exactly as the serving tier encodes them.
func (in *inputs) referenceAnswer(ref *forest.Index, k kind, qseed int64, tau float64) ([]byte, error) {
	x, err := in.queryXML(qseed)
	if err != nil {
		return nil, err
	}
	q, err := xmlconv.ParseString(x, xmlconv.Options{})
	if err != nil {
		return nil, err
	}
	idx := profile.BuildIndex(q, ref.Params())
	if k == kindTopK {
		ms := ref.LookupIndexTopK(idx, topK)
		if ms == nil {
			ms = []forest.Match{}
		}
		return json.Marshal(ms)
	}
	b, err := json.Marshal(ref.LookupIndex(idx, tau))
	return append(b, '\n'), err
}

// answerBytes extracts the matches from a read response: the whole body
// of a /lookup, the "matches" member of a /topk.
func answerBytes(k kind, body []byte) ([]byte, error) {
	if k != kindTopK {
		return body, nil
	}
	var r struct {
		Matches json.RawMessage `json:"matches"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding top-k response: %w", err)
	}
	return r.Matches, nil
}

// compareAnswers requires the served answer to equal the reference byte
// for byte: same IDs, same distances, same order.
func compareAnswers(got, want []byte) error {
	if string(got) == string(want) {
		return nil
	}
	return fmt.Errorf("answer differs from the reference:\n  got  %.200s\n  want %.200s", got, want)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints the window's per-kind accounting and the fingerprint of
// every request body sent, so two runs can be shown to have sent the
// same bytes: the prefix fingerprint covers each client's first
// fingerprintPrefix requests and must be equal for equal seeds.
func report(log io.Writer, name string, win *window) {
	fmt.Fprintf(log, "%s: %.2fs, %d ok ops (%.1f op/s)\n", name, win.dur.Seconds(), win.okOps(), float64(win.okOps())/win.dur.Seconds())
	for k := kind(0); k < numKinds; k++ {
		att := win.sum(func(c *client) int { return c.attempted[k] })
		fl := win.sum(func(c *client) int { return c.failed[k] })
		tr := win.sum(func(c *client) int { return c.transport[k] })
		nx := win.sum(func(c *client) int { return c.non2xx[k] })
		lat, failed := win.latencies(k)
		fmt.Fprintf(log, "  %-6s attempted %6d failed %d (transport %d, non-2xx %d)  mean %.3fms p50 %.3fms p95 %.3fms p99 %.3fms\n",
			kindNames[k], att, fl, tr, nx, mean(lat), quantile(lat, failed, 0.5), quantile(lat, failed, tailQuantile), quantile(lat, failed, 0.99))
	}
	all, prefix := fnv.New64a(), fnv.New64a()
	for _, c := range win.clients {
		fmt.Fprintf(all, "%d:%d:%x;", c.id, c.sent, c.bodies.Sum64())
		fmt.Fprintf(prefix, "%d:%x;", c.id, c.prefix)
		fmt.Fprintf(log, "  client %d sent %d requests, body fingerprint %016x (first %d: %016x)\n",
			c.id, c.sent, c.bodies.Sum64(), fingerprintPrefix, c.prefix)
	}
	fmt.Fprintf(log, "  request fingerprint %016x, prefix fingerprint %016x\n", all.Sum64(), prefix.Sum64())
}

// writeSpans writes the traced window's spans, one JSON object per
// request, pairing each client span with its server span.
func writeSpans(cfg config, win *window) error {
	dir := filepath.Join(cfg.WorkDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
	if err != nil {
		return err
	}
	srv := make(map[string]serverSpan, len(win.spans))
	for _, sp := range win.spans {
		srv[sp.id] = sp
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, c := range win.clients {
		for _, cs := range c.spans {
			ss := srv[cs.id]
			if err := enc.Encode(map[string]any{
				"id": cs.id, "kind": kindNames[cs.kind], "status": cs.status,
				"client_start_ns": cs.start.Nanoseconds(), "client_end_ns": cs.end.Nanoseconds(),
				"server_start_ns": ss.start.Nanoseconds(), "server_end_ns": ss.end.Nanoseconds(),
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
