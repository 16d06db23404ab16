// Instrumentation of the durable store: journal append/replay/compaction
// counts, bytes and latencies. Like the forest, metrics are opt-in through
// a nil-safe collector resolved once into preallocated handles.

package store

import (
	"pqgram/internal/obs"
)

// storeMetrics holds the preresolved metric handles of one store.
type storeMetrics struct {
	col *obs.Collector

	appends     *obs.Counter   // store_journal_appends
	appendBytes *obs.Counter   // store_journal_append_bytes
	appendNS    *obs.Histogram // store_journal_append_ns

	replays       *obs.Counter   // store_journal_replays
	replayRecords *obs.Counter   // store_journal_replay_records
	replayBytes   *obs.Counter   // store_journal_replay_bytes
	replayNS      *obs.Histogram // store_journal_replay_ns

	// Recovery-anomaly counters: what OpenStore had to drop to get back
	// to a consistent state. All zero on a clean reopen.
	replayTorn      *obs.Counter // store_replay_torn_bytes
	replaySkipped   *obs.Counter // store_replay_skipped_records
	replayStale     *obs.Counter // store_replay_stale_discards
	replayResets    *obs.Counter // store_replay_journal_resets
	replayDiscarded *obs.Counter // store_replay_discarded_bytes

	compactions   *obs.Counter   // store_compactions
	compactNS     *obs.Histogram // store_compact_ns
	snapshotBytes *obs.Gauge     // store_snapshot_bytes (size of the last base snapshot)
	journalBytes  *obs.Gauge     // store_journal_bytes (current journal length)
}

// SetCollector attaches (or, with nil, detaches) a metrics collector to
// the store and to its in-memory forest. The journal replay that OpenStore
// performed is published into the replay metrics on first attach. Attach a
// collector once per store handle; re-attaching the same collector would
// re-publish the replay numbers.
func (s *Store) SetCollector(c *obs.Collector) {
	s.forest.SetCollector(c)
	if c == nil {
		s.obs.Store(nil)
		return
	}
	m := &storeMetrics{
		col:             c,
		appends:         c.Counter("store_journal_appends"),
		appendBytes:     c.Counter("store_journal_append_bytes"),
		appendNS:        c.Histogram("store_journal_append_ns"),
		replays:         c.Counter("store_journal_replays"),
		replayRecords:   c.Counter("store_journal_replay_records"),
		replayBytes:     c.Counter("store_journal_replay_bytes"),
		replayNS:        c.Histogram("store_journal_replay_ns"),
		replayTorn:      c.Counter("store_replay_torn_bytes"),
		replaySkipped:   c.Counter("store_replay_skipped_records"),
		replayStale:     c.Counter("store_replay_stale_discards"),
		replayResets:    c.Counter("store_replay_journal_resets"),
		replayDiscarded: c.Counter("store_replay_discarded_bytes"),
		compactions:     c.Counter("store_compactions"),
		compactNS:       c.Histogram("store_compact_ns"),
		snapshotBytes:   c.Gauge("store_snapshot_bytes"),
		journalBytes:    c.Gauge("store_journal_bytes"),
	}
	r := s.recovery
	if r != (RecoveryInfo{}) {
		m.replays.Inc()
		m.replayRecords.Add(r.Records)
		m.replayBytes.Add(r.Bytes)
		m.replayNS.Observe(r.Duration.Nanoseconds())
		m.replayTorn.Add(r.TornBytes)
		m.replaySkipped.Add(r.SkippedRecords)
		m.replayDiscarded.Add(r.DiscardedBytes)
		if r.StaleJournal {
			m.replayStale.Inc()
		}
		if r.JournalReset {
			m.replayResets.Inc()
		}
		c.Event("journal replayed",
			"path", s.path,
			"records", r.Records,
			"bytes", r.Bytes,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale", r.StaleJournal,
			"dur", r.Duration)
		// The replay happened inside OpenStore, before any collector (or
		// tracer) could exist, so its trace is synthesized here from
		// RecoveryInfo and published with the recorded wall time.
		if tr := c.Tracer(); tr != nil {
			sp := obs.StartSpan("store.replay")
			sp.SetAttr("records", r.Records)
			sp.SetAttr("bytes", r.Bytes)
			sp.SetAttr("torn_bytes", r.TornBytes)
			sp.SetAttr("skipped_records", r.SkippedRecords)
			sp.SetAttr("discarded_bytes", r.DiscardedBytes)
			sp.SetAttr("stale_journal", boolAttr(r.StaleJournal))
			sp.SetAttr("journal_reset", boolAttr(r.JournalReset))
			sp.FinishWithDuration(r.Duration)
			tr.Publish(obs.TraceSnapshot{Root: sp.Snapshot()})
		}
	}
	if n, err := s.JournalSize(); err == nil {
		m.journalBytes.Set(n)
	}
	s.obs.Store(m)
}

// boolAttr encodes a recovery flag as a 0/1 span attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Collector returns the attached collector, or nil.
func (s *Store) Collector() *obs.Collector {
	if m := s.obs.Load(); m != nil {
		return m.col
	}
	return nil
}
