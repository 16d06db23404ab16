package store

import (
	"bytes"
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
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// The crash-consistency proof harness. A scripted workload
// (Add/Update/Remove/Compact) runs against the tracing in-memory
// filesystem; then power is cut at every operation boundary of the write
// trace and at sampled byte offsets inside every write (torn appends),
// the store is reopened from the materialized wreckage, and the recovered
// state is checked against the invariants:
//
//   - recovery never fails and never panics once the store exists;
//   - the recovered state equals the committed state after exactly some
//     prefix of the workload's operations — never a hybrid, never a
//     reordering, and (with SetSync on) never less than what was
//     acknowledged before the cut;
//   - Compact is invisible: a crash anywhere inside it recovers either
//     the pre- or post-compaction representation of the same state;
//   - the recovered index is byte-identical (via the deterministic
//     snapshot format) to a forest rebuilt from scratch from the
//     surviving documents, and answers Lookup and SimilarityJoin
//     identically to it — the differential-recovery guarantee;
//   - no file handles leak, whether recovery succeeds or fails.

// crashMark captures the committed state after each workload operation.
type crashMark struct {
	traceEnd int                      // fs trace length when the op returned
	bags     map[string]profile.Index // committed per-tree bags
	docs     map[string]*tree.Tree    // live document versions (clones)
}

func snapshotBags(f *forest.Index) map[string]profile.Index {
	out := make(map[string]profile.Index)
	for _, id := range f.IDs() {
		out[id] = f.TreeIndex(id).Clone()
	}
	return out
}

func cloneDocs(docs map[string]*tree.Tree) map[string]*tree.Tree {
	out := make(map[string]*tree.Tree, len(docs))
	for id, tr := range docs {
		out[id] = tr.Clone()
	}
	return out
}

func bagsEqual(a, b map[string]profile.Index) bool {
	if len(a) != len(b) {
		return false
	}
	for id, bag := range a {
		ob, ok := b[id]
		if !ok || !bag.Equal(ob) {
			return false
		}
	}
	return true
}

// crashWorkload runs the scripted ≥50-op workload and returns the marks.
// The script is deterministic; it forces Compact at fixed positions and
// keeps a floor of live documents so removes and updates always apply.
func crashWorkload(t *testing.T, s *Store, seed int64) []crashMark {
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
		tr := gen.XMark(int64(100+nextID), 30+rng.Intn(20))
		nextID++
		if err := s.Add(id, tr.Clone()); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		docs[id] = tr
	}
	compacts := 0
	const nOps = 54
	for op := 1; op <= nOps; op++ {
		switch {
		case op <= 6: // seed the forest
			add()
		case op == 20 || op == 40: // forced compactions mid-stream
			if err := s.Compact(); err != nil {
				t.Fatalf("op %d compact: %v", op, err)
			}
			compacts++
		case rng.Float64() < 0.18 && len(docs) < 12:
			add()
		case rng.Float64() < 0.18 && len(docs) > 3:
			id := ids()[rng.Intn(len(docs))]
			if err := s.Remove(id); err != nil {
				t.Fatalf("op %d remove %s: %v", op, id, err)
			}
			delete(docs, id)
		default:
			id := ids()[rng.Intn(len(docs))]
			_, log, err := gen.RandomScript(rng, docs[id], 2+rng.Intn(4), gen.DefaultMix)
			if err != nil {
				t.Fatalf("op %d script: %v", op, err)
			}
			if _, err := s.Update(id, docs[id], log); err != nil {
				t.Fatalf("op %d update %s: %v", op, id, err)
			}
		}
		mark()
	}
	if len(marks)-1 < 50 || compacts < 2 {
		t.Fatalf("workload too small: %d ops, %d compacts", len(marks)-1, compacts)
	}
	return marks
}

// crashPoint is one simulated power cut: trace ops [0, op) applied, plus
// partial bytes of op `op` when it is a write.
type crashPoint struct {
	op      int
	partial int
}

// crashPoints enumerates every trace-operation boundary plus >= 8 sampled
// interior byte offsets of every write (journal appends, snapshot writes
// and header rewrites alike — each journal record is a single write, so
// this satisfies "per record" with room to spare).
func crashPoints(trace []fsio.TraceOp) []crashPoint {
	pts := make([]crashPoint, 0, len(trace)*9)
	for i := 0; i <= len(trace); i++ {
		pts = append(pts, crashPoint{op: i})
	}
	for i, op := range trace {
		if op.Kind != fsio.OpWrite || len(op.Data) < 2 {
			continue
		}
		seen := map[int]bool{}
		for k := 0; k < 8; k++ {
			off := 1 + k*(len(op.Data)-1)/8
			if off >= len(op.Data) {
				off = len(op.Data) - 1
			}
			if !seen[off] {
				seen[off] = true
				pts = append(pts, crashPoint{op: i, partial: off})
			}
		}
	}
	return pts
}

func runCrashHarness(t *testing.T, syncMode bool, seed int64) {
	fs := fsio.NewMemFS()
	s, err := CreateStoreFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(syncMode)
	marks := crashWorkload(t, s, seed)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	trace := fs.Trace()
	walRecords := 0
	for _, op := range trace {
		if op.Kind == fsio.OpWrite && len(op.Data) > 0 && op.Data[0] != journalMagic[0] {
			walRecords++ // journal record appends (single-write records)
		}
	}
	query := gen.XMark(991, 40)
	createdAt := marks[0].traceEnd // trace length once the store fully existed

	for _, pt := range crashPoints(trace) {
		name := fmt.Sprintf("cut %d+%db", pt.op, pt.partial)
		crashed := fs.CrashClone(pt.op, pt.partial)
		rs, err := OpenStoreFS(crashed, "idx.pqg")
		if err != nil {
			// Only legal before the store's initial base snapshot became
			// visible; after that, recovery must always succeed.
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

		// Invariant: the recovered state is the committed state of some
		// prefix of operations — specifically the last acked one (a) or
		// the one that was in flight (a+1). Anything else is a lost
		// acknowledged op, a hybrid, or time travel.
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

		// Differential recovery: rebuild a forest from scratch from the
		// surviving documents. The recovered index must be byte-identical
		// to it (deterministic snapshot format) and answer approximate
		// lookups and the similarity join identically.
		rebuilt := forest.New(p33)
		for id, tr := range marks[k].docs {
			if err := rebuilt.Add(id, tr); err != nil {
				t.Fatalf("%s: rebuild: %v", name, err)
			}
		}
		var rb, bb bytes.Buffer
		if err := Save(&rb, rs.Forest()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Save(&bb, rebuilt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(rb.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: recovered snapshot differs from rebuilt-from-scratch (state %d)", name, k)
		}
		if got, want := rs.Forest().Lookup(query, 0.75), rebuilt.Lookup(query, 0.75); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup diverges after recovery: %v vs %v", name, got, want)
		}
		if got, want := rs.Forest().SimilarityJoinWorkers(0.8, 2), rebuilt.SimilarityJoinWorkers(0.8, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SimilarityJoin diverges after recovery: %v vs %v", name, got, want)
		}

		// Top-k differential across recovery: the recovered store under
		// the default plan must equal the exhaustive scan over the
		// rebuilt-from-scratch forest.
		rebuilt.SetPlanMode(forest.PlanExhaustive)
		if got, want := rs.Forest().LookupTopK(query, 5), rebuilt.LookupTopK(query, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupTopK diverges after recovery: %v vs %v", name, got, want)
		}

		// Recovery accounting must be internally consistent.
		if js, err := rs.JournalSize(); err != nil || js < journalHeaderLen {
			t.Fatalf("%s: journal size %d, %v", name, js, err)
		}
		if ri := rs.Recovery(); ri.TornBytes < 0 || ri.Records < 0 || ri.Bytes < 0 {
			t.Fatalf("%s: negative recovery stats: %+v", name, ri)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if crashed.OpenHandles() != 0 {
			t.Fatalf("%s: %d handles leaked after recovery", name, crashed.OpenHandles())
		}
	}
	t.Logf("workload: %d ops, %d journal-record writes, %d trace ops, %d crash points",
		len(marks)-1, walRecords, len(trace), len(crashPoints(trace)))
}

func TestCrashConsistencySynced(t *testing.T)   { runCrashHarness(t, true, 42) }
func TestCrashConsistencyUnsynced(t *testing.T) { runCrashHarness(t, false, 1042) }

// TestCrashDuringRecovery cuts power a second time while recovery itself
// is writing (truncating the tail, resetting a stale journal): recovery
// of a recovered-then-crashed store must still satisfy the invariants.
func TestCrashDuringRecovery(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateStoreFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	doc := gen.XMark(3, 60)
	if err := s.Add("a", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	_, log, err := gen.RandomScript(rng, doc, 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("a", doc, log); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	trace := fs.Trace()
	for cut := 0; cut <= len(trace); cut++ {
		first := fs.CrashClone(cut, 0)
		if _, err := OpenStoreFS(first, "idx.pqg"); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			continue
		}
		// Crash at every point of the recovery's own write activity.
		rtrace := first.Trace()
		for rcut := 0; rcut <= len(rtrace); rcut++ {
			second := first.CrashClone(rcut, 0)
			rs, err := OpenStoreFS(second, "idx.pqg")
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
