package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/tree"
)

// The segmented engine's crash-consistency harness, the sibling of
// crash_test.go: a scripted workload (adds, updates that promote evicted
// documents, removes that tombstone them, auto- and forced flushes,
// compactions) runs against the tracing in-memory filesystem; then power
// is cut at every operation boundary of the write trace and at sampled
// interior byte offsets of every write — which places cuts inside segment
// writes, the manifest's temp-fsync-rename replace, journal resets and
// appends, and the obsolete-file removals. After each cut the store is
// reopened from the wreckage and checked:
//
//   - recovery never fails once the store exists on disk, and never
//     resurrects a stale segment: the recovered logical state is the
//     committed state after exactly the last acked operation or the one
//     in flight — flushes and compactions are invisible to it;
//   - the recovered index answers Lookup, SimilarityJoin and metric
//     top-k identically to a forest rebuilt from scratch from the
//     surviving documents — never wrong answers, whether a document is
//     resident, evicted, or mid-eviction at the cut;
//   - no file handles leak.

// segCrashWorkload drives the scripted workload and returns the marks.
func segCrashWorkload(t *testing.T, s *Segmented, seed int64) []crashMark {
	t.Helper()
	fs := s.fs.(*fsio.MemFS)
	rng := rand.New(rand.NewSource(seed))
	docs := make(map[string]*tree.Tree)
	marks := []crashMark{{traceEnd: fs.TraceLen(), bags: snapshotBags(s.forest), docs: cloneDocs(docs)}}
	mark := func() {
		marks = append(marks, crashMark{
			traceEnd: fs.TraceLen(),
			bags:     snapshotBags(s.forest),
			docs:     cloneDocs(docs),
		})
	}
	ids := func() []string {
		out := make([]string, 0, len(docs))
		for id := range docs {
			out = append(out, id)
		}
		sort.Strings(out)
		return out
	}
	nextID := 0
	add := func() {
		id := fmt.Sprintf("doc-%02d", nextID)
		tr := gen.XMark(int64(200+nextID), 22+rng.Intn(16))
		nextID++
		if err := s.Add(id, tr.Clone()); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		docs[id] = tr
	}
	flushes, compacts := 0, 0
	const nOps = 34
	for op := 1; op <= nOps; op++ {
		switch {
		case op <= 5: // seed the memtable (threshold 4 ⇒ an auto-flush here)
			add()
		case op == 12 || op == 24: // forced flush mid-stream
			if err := s.Flush(); err != nil {
				t.Fatalf("op %d flush: %v", op, err)
			}
			flushes++
		case op == 18 || op == 30: // forced compaction mid-stream
			if err := s.Compact(); err != nil {
				t.Fatalf("op %d compact: %v", op, err)
			}
			compacts++
		case rng.Float64() < 0.22 && len(docs) < 12:
			add()
		case rng.Float64() < 0.22 && len(docs) > 3:
			id := ids()[rng.Intn(len(docs))]
			if err := s.Remove(id); err != nil {
				t.Fatalf("op %d remove %s: %v", op, id, err)
			}
			delete(docs, id)
		default:
			id := ids()[rng.Intn(len(docs))]
			_, log, err := gen.RandomScript(rng, docs[id], 2+rng.Intn(3), gen.DefaultMix)
			if err != nil {
				t.Fatalf("op %d script: %v", op, err)
			}
			if _, err := s.Update(id, docs[id], log); err != nil {
				t.Fatalf("op %d update %s: %v", op, id, err)
			}
		}
		mark()
	}
	if flushes < 2 || compacts < 2 {
		t.Fatalf("workload too tame: %d forced flushes, %d compactions", flushes, compacts)
	}
	if st := s.Stats(); st.Segments == 0 {
		t.Fatalf("workload left no live segments: %+v", st)
	}
	return marks
}

func runSegCrashHarness(t *testing.T, syncMode bool, seed int64) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(syncMode)
	s.SetFlushThreshold(4)
	marks := segCrashWorkload(t, s, seed)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	trace := fs.Trace()
	query := gen.XMark(991, 40)
	createdAt := marks[0].traceEnd // trace length once the store fully existed

	for _, pt := range crashPoints(trace) {
		name := fmt.Sprintf("cut %d+%db", pt.op, pt.partial)
		crashed := fs.CrashClone(pt.op, pt.partial)
		rs, err := OpenSegmentedFS(crashed, "idx.pqg")
		if err != nil {
			// Only legal before the initial manifest became visible; after
			// that, recovery must always succeed — a torn segment write, a
			// half-replaced manifest or a stale journal are all expected
			// wreckage, never fatal.
			if pt.op >= createdAt {
				t.Fatalf("%s: recovery failed: %v", name, err)
			}
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: pre-creation recovery error should be NotExist, got: %v", name, err)
			}
			if crashed.OpenHandles() != 0 {
				t.Fatalf("%s: %d handles leaked on failed open", name, crashed.OpenHandles())
			}
			continue
		}
		if err := rs.Forest().SelfCheck(); err != nil {
			t.Fatalf("%s: recovered forest corrupt: %v", name, err)
		}

		// Prefix invariant: the recovered logical state is the committed
		// state after the last acked op (a) or the one in flight (a+1).
		// Flush and Compact appear in the mark list too — with bags equal to
		// their predecessor's, because reorganizing storage changes nothing
		// logical — so a cut inside either resolves to one of those marks.
		a := 0
		for i, mk := range marks {
			if mk.traceEnd <= pt.op {
				a = i
			}
		}
		got := snapshotBags(rs.Forest())
		k := -1
		if bagsEqual(got, marks[a].bags) {
			k = a
		} else if a+1 < len(marks) && bagsEqual(got, marks[a+1].bags) {
			k = a + 1
		}
		if k < 0 {
			t.Fatalf("%s: recovered state matches neither committed state %d (acked, sync=%v) nor %d (in flight)",
				name, a, syncMode, a+1)
		}

		// Differential recovery: the segmented index — with whatever mix of
		// resident and segment-served documents the cut left — must answer
		// identically to an all-in-RAM forest rebuilt from the surviving
		// documents.
		rebuilt := forest.New(p33)
		for id, tr := range marks[k].docs {
			if err := rebuilt.Add(id, tr); err != nil {
				t.Fatalf("%s: rebuild: %v", name, err)
			}
		}
		if got, want := rs.Forest().Lookup(query, 0.75), rebuilt.Lookup(query, 0.75); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup diverges after recovery: %v vs %v", name, got, want)
		}
		if got, want := rs.Forest().SimilarityJoinWorkers(0.8, 2), rebuilt.SimilarityJoinWorkers(0.8, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SimilarityJoin diverges after recovery: %v vs %v", name, got, want)
		}
		rebuilt.SetPlanMode(forest.PlanExhaustive)
		if got, want := rs.Forest().LookupTopK(query, 5), rebuilt.LookupTopK(query, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupTopK diverges after recovery: %v vs %v", name, got, want)
		}

		// Accounting sanity: the journal is at least a header, the manifest
		// agrees with the open segments, and nothing negative snuck into
		// the recovery stats.
		if js, err := rs.JournalSize(); err != nil || js < journalHeaderLen {
			t.Fatalf("%s: journal size %d, %v", name, js, err)
		}
		ri := rs.Recovery()
		if ri.TornBytes < 0 || ri.Records < 0 || ri.Bytes < 0 || ri.DiscardedBytes < 0 {
			t.Fatalf("%s: negative recovery stats: %+v", name, ri)
		}
		st := rs.Stats()
		if st.ResidentDocs+st.EvictedDocs != rs.Forest().Len() {
			t.Fatalf("%s: %d resident + %d evicted != %d registered",
				name, st.ResidentDocs, st.EvictedDocs, rs.Forest().Len())
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if crashed.OpenHandles() != 0 {
			t.Fatalf("%s: %d handles leaked after recovery", name, crashed.OpenHandles())
		}
	}
	t.Logf("workload: %d ops, %d trace ops, %d crash points",
		len(marks)-1, len(trace), len(crashPoints(trace)))
}

func TestSegCrashConsistencySynced(t *testing.T)   { runSegCrashHarness(t, true, 77) }
func TestSegCrashConsistencyUnsynced(t *testing.T) { runSegCrashHarness(t, false, 1077) }

// TestSegCrashDuringRecovery cuts power again while recovery itself is
// writing (truncating the journal tail, resetting a stale journal,
// retrying obsolete-segment removals): recovery of a recovered-then-
// crashed store must still come up clean.
func TestSegCrashDuringRecovery(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	doc := gen.XMark(3, 50)
	if err := s.Add("a", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	_, log, err := gen.RandomScript(rng, doc, 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("a", doc, log); err != nil { // promotes "a" out of the segment
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // second segment + tombstone-free re-store
		t.Fatal(err)
	}
	if err := s.Remove("b"); err != nil { // journaled tombstone of an evicted doc
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // merge + obsolete-file GC
		t.Fatal(err)
	}
	if err := s.Add("c", tree.MustParse("m(n o p)")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	trace := fs.Trace()
	for cut := 0; cut <= len(trace); cut++ {
		first := fs.CrashClone(cut, 0)
		if _, err := OpenSegmentedFS(first, "idx.pqg"); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			continue
		}
		rtrace := first.Trace()
		for rcut := 0; rcut <= len(rtrace); rcut++ {
			second := first.CrashClone(rcut, 0)
			rs, err := OpenSegmentedFS(second, "idx.pqg")
			if err != nil {
				t.Fatalf("cut %d/%d: double-crash recovery failed: %v", cut, rcut, err)
			}
			if err := rs.Forest().SelfCheck(); err != nil {
				t.Fatalf("cut %d/%d: %v", cut, rcut, err)
			}
			rs.Close()
		}
	}
}
