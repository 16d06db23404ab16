// pqserve is the production pq-gram similarity service: the
// internal/serve tier — request batching, an epoch-invalidated result
// cache, and latency-driven admission control — over an in-memory or
// journaled persistent index.
//
// Typical invocations:
//
//	pqserve                          in-memory index on :8080, cache of 1024 results
//	pqserve -index idx.pq -sync      durable index, fsync every mutation
//	pqserve -index idx.pq -segments -flush-every 4096
//	                                 segmented (out-of-core) index: mutated docs
//	                                 spill to immutable segment files every 4096
//	                                 writes; lookups merge RAM and segments
//	pqserve -p95-budget 25ms         shed (429 + Retry-After) when p95 crosses 25ms
//	pqserve -cache 0 -max-inflight 0 raw forest behavior: no cache, no admission
//
// An existing index is opened with the engine that created it: pqserve
// probes for <path>.manifest and picks the segmented opener when it
// exists, so -segments only matters when creating a new index.
//
// The HTTP surface is documented in internal/serve/http.go;
// examples/server exposes the same endpoints with a guided demo.
package main

import (
	"flag"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/serve"
	"pqgram/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	index := flag.String("index", "", "back the service with a persistent store at this path (journaled; survives restarts)")
	syncWrites := flag.Bool("sync", false, "with -index: fsync every journaled mutation before acknowledging it")
	segments := flag.Bool("segments", false, "with -index: create a segmented (out-of-core) store; existing indexes auto-detect their engine")
	flushEvery := flag.Int("flush-every", 4096, "with -segments: flush the memtable to a segment after this many dirty documents (0 = never automatically)")
	plan := flag.String("plan", "auto", "query planner mode: auto, exhaustive or pruned")
	cacheSize := flag.Int("cache", 1024, "result-cache capacity in entries (0 disables)")
	maxInflight := flag.Int("max-inflight", 64, "concurrent lookups executing at once (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 256, "lookups allowed to wait for an in-flight slot before shedding")
	p95Budget := flag.Duration("p95-budget", 0, "shed new lookups while windowed p95 latency exceeds this (0 disables)")
	budgetWindow := flag.Duration("budget-window", time.Second, "rotation period of the p95 backpressure window")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	planModes := map[string]forest.PlanMode{
		"auto": forest.PlanAuto, "exhaustive": forest.PlanExhaustive,
		"pruned": forest.PlanPruned,
	}
	planMode, ok := planModes[*plan]
	if !ok {
		log.Fatalf("unknown -plan %q (want auto, exhaustive or pruned)", *plan)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	col := obs.NewCollector()
	col.SetLogger(logger)
	profile.SetCollector(col)

	var f *forest.Index
	var backend serve.Backend
	switch {
	case *index != "" && (*segments || store.IsSegmented(*index)):
		var st *store.Segmented
		var err error
		if store.IsSegmented(*index) {
			st, err = store.OpenSegmented(*index)
		} else if _, serr := os.Stat(*index); serr == nil {
			log.Fatalf("index %s exists but is not segmented; drop -segments to open it", *index)
		} else {
			st, err = store.CreateSegmented(*index, profile.Default)
		}
		if err != nil {
			log.Fatalf("opening index %s: %v", *index, err)
		}
		defer st.Close()
		st.SetSync(*syncWrites)
		st.SetFlushThreshold(*flushEvery)
		st.SetCollector(col)
		r, ss := st.Recovery(), st.Stats()
		logger.Info("index opened", "path", *index, "engine", "segmented",
			"docs", st.Forest().Len(),
			"segments", ss.Segments,
			"segment_bytes", ss.SegmentBytes,
			"replayed_records", r.Records,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale_journal", r.StaleJournal)
		f = st.Forest()
		backend = st
	case *index != "":
		var st *store.Store
		var err error
		if _, serr := os.Stat(*index); os.IsNotExist(serr) {
			st, err = store.CreateStore(*index, profile.Default)
		} else {
			st, err = store.OpenStore(*index)
		}
		if err != nil {
			log.Fatalf("opening index %s: %v", *index, err)
		}
		defer st.Close()
		st.SetSync(*syncWrites)
		st.SetCollector(col)
		r := st.Recovery()
		logger.Info("index opened", "path", *index, "engine", "snapshot",
			"docs", st.Forest().Len(),
			"replayed_records", r.Records,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale_journal", r.StaleJournal)
		f = st.Forest()
		backend = st
	default:
		f = forest.New(profile.Default)
		f.SetCollector(col)
	}
	f.SetPlanMode(planMode)

	srv := serve.New(f, backend, serve.Config{
		CacheSize:    *cacheSize,
		MaxInFlight:  *maxInflight,
		MaxQueue:     *maxQueue,
		P95Budget:    *p95Budget,
		BudgetWindow: *budgetWindow,
		RetryAfter:   *retryAfter,
		Logger:       logger,
	}, col)

	log.Printf("pqserve listening on %s (cache=%d inflight=%d queue=%d p95-budget=%s)",
		*addr, *cacheSize, *maxInflight, *maxQueue, *p95Budget)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
