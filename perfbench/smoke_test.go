package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// tiny is a configuration small enough to run every workload in about a
// second.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		Workload: workload, Seed: 7, Seconds: 0.4, Trace: trace,
		Docs: 24, DocNodes: 60, ShadowDocs: 4,
		FlushEvery: 8, Trials: 2, Slice: 50 * time.Millisecond, MinSlices: 1, WorkDir: t.TempDir(),
	}
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSONMatchesMetrics holds the metric lists, units and
// workload rationales in BENCHMARK.json equal to the ones the code emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: why differs:\n  json %q\n  code %q", w.Name, w.Why, workloads[w.Name].why)
		}
	}
}

// TestSmoke runs every workload end to end and traced at tiny sizes and
// requires every named metric with its unit and every check to pass.
func TestSmoke(t *testing.T) {
	for _, name := range sortedWorkloads() {
		for _, trace := range []bool{false, true} {
			out, err := run(tiny(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, spec := range want {
				m, ok := out.Metrics[spec.name]
				if !ok || m.Unit != spec.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, spec.name, m, spec.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, spec.name, m.Value)
				}
			}
		}
	}
}

// TestAnswerCheckRejectsWrongReference sends a real read to a real server
// and compares it with a correct reference and with one that is missing
// the best-matching document.
func TestAnswerCheckRejectsWrongReference(t *testing.T) {
	cfg := tiny(t, "hot-mixed", false)
	w := workloads[cfg.Workload]
	in, err := makeInputs(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	profile.SetCollector(nil)
	s, _, err := startServer(cfg, w, in, obs.NewCollector(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	trees, err := in.initialTrees()
	if err != nil {
		t.Fatal(err)
	}
	good, err := referenceForest(in.ids, trees)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := in.fixedReads(tagProbe, 2, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for _, r := range probes {
		status, _, body, err := post(hc, s.url, r, "smoke")
		if err != nil || status != 200 {
			t.Fatalf("%s: status %d: %v", r.path, status, err)
		}
		got, err := answerBytes(r.kind, body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := in.referenceAnswer(good, r.kind, r.qseed, r.tau)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareAnswers(got, want); err != nil {
			t.Fatalf("%s against the correct reference: %v", r.path, err)
		}
		var top []struct{ TreeID string }
		if err := json.Unmarshal(want, &top); err != nil || len(top) == 0 {
			t.Fatalf("%s: reference answer %s has no match to remove (%v)", r.path, want, err)
		}
		var ids []string
		var kept []*tree.Tree
		for i, id := range in.ids {
			if id != top[0].TreeID {
				ids, kept = append(ids, id), append(kept, trees[i])
			}
		}
		bad, err := referenceForest(ids, kept)
		if err != nil {
			t.Fatal(err)
		}
		wrong, err := in.referenceAnswer(bad, r.kind, r.qseed, r.tau)
		if err != nil {
			t.Fatal(err)
		}
		if compareAnswers(got, wrong) == nil {
			t.Fatalf("%s: the answer check accepted a reference without %s", r.path, top[0].TreeID)
		}
	}
}

// TestCheckWindowRejectsDivergedState runs the after-window check on a
// fresh hot-mixed server: it passes while the benchmark's working trees
// equal the server's, sending each probe and pool request twice, and
// fails once they differ.
func TestCheckWindowRejectsDivergedState(t *testing.T) {
	cfg := tiny(t, "hot-mixed", false)
	w := workloads[cfg.Workload]
	in, err := makeInputs(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	profile.SetCollector(nil)
	col := obs.NewCollector()
	s, _, err := startServer(cfg, w, in, col, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	var v verdict
	hits := col.Snapshot().Counters["serve_cache_hit"]
	checkWindow(w, in, s, &window{}, &v, io.Discard)
	if len(v.problems) != 0 || v.failed != 0 {
		t.Fatalf("check of an unchanged server failed: %v", v.problems)
	}
	reqs := probeQueries*(len(probeTaus)+1) + len(in.pool)
	if v.attempted != 2*reqs {
		t.Fatalf("attempted %d requests, want each of %d twice", v.attempted, reqs)
	}
	if got := col.Snapshot().Counters["serve_cache_hit"] - hits; got < int64(reqs) {
		t.Fatalf("%d cache hits, want at least one per request (%d)", got, reqs)
	}
	one, err := xmlconv.ParseString("<site/>", xmlconv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range in.models {
		d.tree = one
	}
	v = verdict{}
	checkWindow(w, in, s, &window{}, &v, io.Discard)
	if len(v.problems) == 0 || v.failed == 0 {
		t.Fatal("check passed although the reference trees differ from the server's")
	}
}

// TestParityRejectsMismatchedCounts breaks each count-parity rule in turn.
func TestParityRejectsMismatchedCounts(t *testing.T) {
	ok := parity{httpRequests: 10, answered: 10, serveRequests: 7, reads: 7, profileBuilds: 7,
		forestUpdates: 3, acked: 3, handlerNS: 100, nestedNS: 90}
	if bad := ok.check(); len(bad) != 0 {
		t.Fatalf("consistent counts rejected: %v", bad)
	}
	for name, breakIt := range map[string]func(p *parity){
		"http":    func(p *parity) { p.httpRequests++ },
		"serve":   func(p *parity) { p.serveRequests-- },
		"profile": func(p *parity) { p.profileBuilds++ },
		"forest":  func(p *parity) { p.forestUpdates++ },
		"spans":   func(p *parity) { p.missingSpans = 1 },
		"nesting": func(p *parity) { p.unnested = 1 },
		"layers":  func(p *parity) { p.nestedNS = p.handlerNS + 1 },
	} {
		p := ok
		breakIt(&p)
		if len(p.check()) != 1 {
			t.Errorf("%s: mismatched count not reported exactly once: %v", name, p.check())
		}
	}
}
