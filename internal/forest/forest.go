// Package forest implements the persistent pq-gram index of a document
// collection (Augsten, Böhlen and Gamper, VLDB 2006, §3.2 and §9.1): the
// relation (treeId, pqg, cnt) of Figure 4, augmented with inverted postings
// pqg → (treeId, cnt) so that an approximate lookup touches only the trees
// that share at least one pq-gram with the query.
//
// The index supports incremental maintenance: Update applies the deltas of
// Algorithm 1 to both the per-tree bag and the postings, so a document
// change costs time proportional to the log, not to the forest.
//
// The in-memory postings need not hold the whole collection: a storage
// tier (tier.go, implemented by the segmented store in internal/store)
// can serve evicted documents' bags and postings from immutable on-disk
// segments. Every lookup, join and distance path merges the two
// populations and returns results byte-identical to the all-in-RAM index;
// see tier.go for the resident-XOR-evicted invariant this rests on.
//
// # Concurrency
//
// The index is safe for concurrent use as the shared artifact the paper
// targets: many clients looking up while edit feeds stream in. The inverted
// postings are lock-striped into shards keyed by label-tuple hash, each
// per-tree bag is guarded by its own RWMutex, and a registry RWMutex guards
// the tree table. Lookups, distance queries and incremental updates of
// different documents all proceed in parallel; only the structural
// operations (Add, Remove, Put, AddAll) and SelfCheck take the registry
// write lock and briefly exclude everything else.
//
// Concurrent Update/ApplyDeltas calls against the same document serialize
// on the document's lock and keep the index internally consistent, but the
// logs must still form one coherent edit sequence — interleaving
// independently derived logs for the same document is a logic error, with
// or without locking, exactly as in single-threaded use.
//
// Lock ordering is registry → tree entry → postings shard; shard locks are
// never held while acquiring an entry lock, and multi-entry read locks are
// always taken in ascending tree-ID order. The storage tier's own lock
// nests after all of them: tier reads run under the registry lock and
// never call back into the forest.
package forest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// shardBits fixes the number of postings shards to 1<<shardBits. 32 shards
// keep writer collisions rare at typical GOMAXPROCS without bloating the
// struct; the routing hash is profile.LabelTuple.Shard.
const shardBits = 5

// numShards is the number of lock stripes of the inverted postings.
const numShards = 1 << shardBits

// shard is one stripe of the inverted postings pqg → (treeId, cnt). Its
// mutex guards the outer map and every inner posting list reachable from
// it; structural operations holding the registry write lock exclude
// every shard reader and writer wholesale, which is the Index.mu:w
// alternative of the guard.
type shard struct {
	mu       sync.RWMutex
	postings map[profile.LabelTuple]map[string]int // guarded by mu or Index.mu:w
}

// add merges one posting. Callers hold s.mu for writing, or the registry
// write lock (which excludes all shard access).
//
//pqlint:locked s.mu
func (s *shard) add(lt profile.LabelTuple, id string, c int) {
	m := s.postings[lt]
	if m == nil {
		m = make(map[string]int)
		s.postings[lt] = m
	}
	m[id] += c
}

// remove drops one posting. Same locking contract as add.
//
//pqlint:locked s.mu
func (s *shard) remove(lt profile.LabelTuple, id string) {
	if m := s.postings[lt]; m != nil {
		delete(m, id)
		if len(m) == 0 {
			delete(s.postings, lt)
		}
	}
}

// treeEntry is one indexed tree: its bag, the bag's lock, and the bag
// cardinality cached so that lookups can score candidates without taking
// the bag lock at all.
//
// idx == nil marks an evicted entry (tier.go): the bag lives in the
// storage tier, the postings are absent from the shards, and distinct
// caches the bag's distinct-tuple count (written only under the registry
// write lock, like idx itself on eviction/promotion).
type treeEntry struct {
	mu       sync.RWMutex
	idx      profile.Index // guarded by mu or Index.mu:w
	size     atomic.Int64
	distinct int // guarded by Index.mu
}

// Index is the pq-gram index of a forest of named trees. It is safe for
// concurrent use; see the package comment for the exact guarantees.
type Index struct {
	pr profile.Params

	// mu guards the trees table. Write lock = structural changes
	// (Add/Remove/Put/AddAll) and SelfCheck; every other operation holds
	// the read lock for its full duration, so structural ops never
	// interleave with an in-flight lookup or update.
	mu     sync.RWMutex
	trees  map[string]*treeEntry // guarded by mu
	shards [numShards]shard

	// obs is the attached instrumentation, nil when the index is not
	// observed (the default). Hot paths load it once at entry; see
	// metrics.go.
	obs atomic.Pointer[metrics]

	// plan is the query-planning mode (PlanMode); see planner.go. The
	// zero value is PlanAuto.
	plan atomic.Int32

	// epoch is the mutation epoch of the index: a counter advanced by
	// every operation that can change lookup results (Add, Remove, Put,
	// bulk builds, incremental delta application). Result caches key
	// their entries on it — see Epoch for the exact protocol. Structural
	// ops under the registry write lock advance it once; delta
	// applications, which run concurrently with lookups, advance it both
	// before the first change and after the last one (seqlock-style), so
	// an epoch observed unchanged across a read brackets a window with no
	// completed mutation.
	epoch atomic.Uint64

	// tier is the storage tier serving evicted documents (tier.go), nil
	// when every document is resident. Attached once at open time by the
	// segmented store.
	tier Tier // guarded by mu
}

// The package's lock-acquisition order, enforced by the lockorder
// analyzer. The registry lock is always outermost, per-document bag
// locks nest inside it, and postings stripes inside those. Multi-instance
// acquisitions of the same class (two bag locks in Distance, the pairwise
// join) are sanctioned separately: always in ascending tree-ID order.
//
//pqlint:lockorder Index.mu < treeEntry.mu < shard.mu

// New creates an empty forest index with the given pq-gram parameters.
func New(pr profile.Params) *Index {
	if err := pr.Validate(); err != nil {
		panic(err)
	}
	f := &Index{
		pr:    pr,
		trees: make(map[string]*treeEntry),
	}
	for i := range f.shards {
		f.shards[i].postings = make(map[profile.LabelTuple]map[string]int)
	}
	return f
}

func (f *Index) shardOf(lt profile.LabelTuple) *shard {
	return &f.shards[lt.Shard(shardBits)]
}

// Params returns the pq-gram parameters of the index.
func (f *Index) Params() profile.Params { return f.pr }

// Epoch returns the current mutation epoch of the index. The epoch
// advances (by at least one) whenever a mutation that can change lookup
// results completes; it never moves backwards. A cached lookup result is
// valid for serving exactly when the epoch it was computed under equals
// the current epoch. Writers advance the epoch before their first
// visible change and after their last one, so the safe caching protocol
// is: read e1 := Epoch(), run the lookup, read e2 := Epoch(); the result
// may be cached under e1 only if e1 == e2. A later read that still
// observes e1 proves no mutation completed in between.
func (f *Index) Epoch() uint64 { return f.epoch.Load() }

// Len returns the number of indexed trees.
func (f *Index) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.trees)
}

// Has reports whether a tree with the given ID is indexed.
func (f *Index) Has(id string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.trees[id]
	return ok
}

// IDs returns the indexed tree IDs in ascending order.
func (f *Index) IDs() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.idsLocked()
}

//pqlint:locked f.mu:r
func (f *Index) idsLocked() []string {
	out := make([]string, 0, len(f.trees))
	for id := range f.trees {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Add indexes a tree under the given ID. It fails if the ID is taken.
func (f *Index) Add(id string, t *tree.Tree) error {
	return f.AddIndex(id, profile.BuildIndex(t, f.pr))
}

// AddIndex indexes a precomputed pq-gram index (e.g. one loaded from disk)
// under the given ID. The index is owned by the forest afterwards and must
// not be modified by the caller.
func (f *Index) AddIndex(id string, idx profile.Index) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addIndexLocked(id, idx)
}

// addIndexLocked requires f.mu held for writing; under the write lock the
// shards need no locking of their own.
//
//pqlint:locked f.mu
func (f *Index) addIndexLocked(id string, idx profile.Index) error {
	if _, ok := f.trees[id]; ok {
		return fmt.Errorf("forest: tree %q already indexed", id)
	}
	e := &treeEntry{idx: idx}
	e.size.Store(int64(idx.Size()))
	f.trees[id] = e
	for lt, c := range idx {
		f.shardOf(lt).add(lt, id, c)
	}
	f.epoch.Add(1)
	if m := f.obs.Load(); m != nil {
		m.adds.Inc()
	}
	return nil
}

// Remove drops a tree from the index.
func (f *Index) Remove(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.removeLocked(id)
}

//pqlint:locked f.mu
func (f *Index) removeLocked(id string) error {
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q not indexed", id)
	}
	for lt := range e.idx {
		f.shardOf(lt).remove(lt, id)
	}
	delete(f.trees, id)
	f.epoch.Add(1)
	if m := f.obs.Load(); m != nil {
		m.removes.Inc()
	}
	return nil
}

// Put indexes t under id, atomically replacing any existing tree with that
// ID, and returns the bag cardinality of the new index. It is the upsert
// the serving path needs: with separate Has/Remove/Add calls two writers
// can interleave, with Put they cannot.
func (f *Index) Put(id string, t *tree.Tree) int {
	idx := profile.BuildIndex(t, f.pr)
	n := idx.Size()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.trees[id]; ok {
		f.removeLocked(id)
	}
	f.addIndexLocked(id, idx)
	if m := f.obs.Load(); m != nil {
		m.puts.Inc()
	}
	return n
}

// TreeIndex returns a copy of the pq-gram index of one tree, or nil if the
// ID is unknown. The copy is the caller's: mutating it cannot corrupt the
// forest. Callers that only need the cardinalities should use TreeStats,
// which does not copy.
func (f *Index) TreeIndex(id string) profile.Index {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.idx == nil {
		// Evicted: the tier hands back a fresh copy already. The registry
		// read lock is held across the fetch so the document cannot be
		// promoted or re-flushed mid-read.
		bag, err := f.bagOfLocked(id, e)
		if err != nil {
			return nil
		}
		return bag
	}
	return e.idx.Clone()
}

// TreeStats returns the bag cardinality and the number of distinct tuples
// of one tree's index without copying the bag.
func (f *Index) TreeStats(id string) (size, distinct int, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return 0, 0, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.idx == nil {
		return int(e.size.Load()), e.distinct, true
	}
	return int(e.size.Load()), len(e.idx), true
}

// ForEachTree calls fn once per indexed tree in ascending ID order, passing
// the internal bag (for resident trees) or a tier-fetched copy (for
// evicted ones). fn must treat the bag as read-only and must not retain
// it after returning; the bag's lock is held for the duration of the call.
// Iteration stops at the first error, which is returned. This is the
// traversal the store uses to serialize the forest without copying every
// resident bag.
func (f *Index) ForEachTree(fn func(id string, idx profile.Index) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, id := range f.idsLocked() {
		e := f.trees[id]
		e.mu.RLock()
		bag, err := f.bagOfLocked(id, e)
		if err == nil {
			err = fn(id, bag)
		}
		e.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Size returns the total bag cardinality over all trees (the number of
// rows a (treeId, pqg, 1)-normalized relation would have).
func (f *Index) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := int64(0)
	for _, e := range f.trees {
		n += e.size.Load()
	}
	return int(n)
}

// Update incrementally maintains the index of one tree after it has been
// edited, given the resulting tree and the log of inverse edit operations
// (Algorithm 1 applied to both the per-tree bag and the postings). It
// returns the per-step statistics of the underlying maintenance run.
func (f *Index) Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error) {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return core.Stats{}, fmt.Errorf("forest: tree %q not indexed", id)
	}
	iPlus, iMinus, st, err := core.Deltas(tn, log, f.pr)
	if err != nil {
		return st, err
	}
	err = f.applyDeltasEntry(e, id, iPlus, iMinus)
	if m != nil && err == nil {
		m.updates.Inc()
		m.updateGramsPlus.Add(int64(iPlus.Size()))
		m.updateGramsMinus.Add(int64(iMinus.Size()))
		m.updateNS.ObserveSince(t0)
	}
	return st, err
}

// ApplyDeltas applies precomputed index deltas (I⁺, I⁻ from core.Deltas)
// to one tree's bag and the postings. Callers that persist deltas (e.g.
// the journaled store) use this to replay them.
func (f *Index) ApplyDeltas(id string, iPlus, iMinus profile.Index) error {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q not indexed", id)
	}
	err := f.applyDeltasEntry(e, id, iPlus, iMinus)
	if m != nil && err == nil {
		m.updates.Inc()
		m.updateGramsPlus.Add(int64(iPlus.Size()))
		m.updateGramsMinus.Add(int64(iMinus.Size()))
		m.updateNS.ObserveSince(t0)
	}
	return err
}

// applyDeltasEntry requires f.mu held for reading. The entry lock is held
// across both the bag and the postings phase so that updates to the same
// document serialize as a whole and never observe each other half-applied.
//
//pqlint:locked f.mu:r
func (f *Index) applyDeltasEntry(e *treeEntry, id string, iPlus, iMinus profile.Index) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.idx == nil {
		// Deltas mutate the resident bag and the in-memory postings; the
		// segmented store promotes a flushed document before updating it.
		return fmt.Errorf("forest: tree %q is evicted; promote it before applying deltas", id)
	}
	// Delta application runs under the registry *read* lock, concurrent
	// with lookups, so the epoch is advanced on both sides of the change
	// (seqlock-style): a lookup that observes the same epoch before and
	// after its traversal is guaranteed not to have raced a completed
	// mutation. The exit bump happens even on error — a failed
	// application may have partially changed the bag, and a spurious
	// cache invalidation is always safe.
	f.epoch.Add(1)
	defer f.epoch.Add(1)
	if err := core.ApplyDeltas(e.idx, iPlus, iMinus); err != nil {
		return fmt.Errorf("forest: tree %q: %w", id, err)
	}
	e.size.Add(int64(iPlus.Size() - iMinus.Size()))
	for lt, c := range iMinus {
		s := f.shardOf(lt)
		s.mu.Lock()
		m := s.postings[lt]
		if m == nil || m[id] < c {
			s.mu.Unlock()
			return fmt.Errorf("forest: postings for tree %q underflow", id)
		}
		m[id] -= c
		if m[id] == 0 {
			s.remove(lt, id)
		}
		s.mu.Unlock()
	}
	for lt, c := range iPlus {
		s := f.shardOf(lt)
		s.mu.Lock()
		s.add(lt, id, c)
		s.mu.Unlock()
	}
	return nil
}

// SelfCheck verifies the internal consistency of the index: the inverted
// postings must be exactly the transposition of the resident bags, every
// posting must live in the shard its tuple routes to, and the cached bag
// sizes must match the bags. Evicted entries are checked against the
// storage tier instead: the tier must hold their bag and the cached size
// and distinct count must match it. It takes the registry write lock, so
// it is atomic with respect to every other operation. It is O(index) and
// intended for tests and integrity audits after crashes.
func (f *Index) SelfCheck() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	want := make(map[profile.LabelTuple]map[string]int)
	for id, e := range f.trees {
		if e.idx == nil {
			bag, err := f.bagOfLocked(id, e)
			if err != nil {
				return err
			}
			if got := e.size.Load(); got != int64(bag.Size()) {
				return fmt.Errorf("forest: cached size of evicted tree %q is %d, tier bag has %d", id, got, bag.Size())
			}
			if e.distinct != len(bag) {
				return fmt.Errorf("forest: cached distinct of evicted tree %q is %d, tier bag has %d", id, e.distinct, len(bag))
			}
			continue
		}
		n := 0
		for lt, c := range e.idx {
			m := want[lt]
			if m == nil {
				m = make(map[string]int)
				want[lt] = m
			}
			m[id] = c
			n += c
		}
		if got := e.size.Load(); got != int64(n) {
			return fmt.Errorf("forest: cached size of tree %q is %d, want %d", id, got, n)
		}
	}
	total := 0
	for si := range f.shards {
		for lt, m := range f.shards[si].postings {
			if int(lt.Shard(shardBits)) != si {
				return fmt.Errorf("forest: tuple %016x stored in shard %d, routes to %d",
					uint64(lt), si, lt.Shard(shardBits))
			}
			wm := want[lt]
			if len(m) != len(wm) {
				return fmt.Errorf("forest: posting list size mismatch for one tuple")
			}
			for id, c := range m {
				if wm[id] != c {
					return fmt.Errorf("forest: posting count for tree %q is %d, want %d", id, c, wm[id])
				}
			}
			total++
		}
	}
	if total != len(want) {
		return fmt.Errorf("forest: %d posting keys, want %d", total, len(want))
	}
	return nil
}

// Match is one approximate-lookup result.
type Match struct {
	TreeID   string
	Distance float64
}

// Lookup returns every indexed tree whose pq-gram distance to the query
// tree is strictly below tau, sorted by ascending distance (ties by ID).
// This is the approximate lookup of §3.2: {T ∈ F | dist(X, T) < τ}.
func (f *Index) Lookup(query *tree.Tree, tau float64) []Match {
	return f.LookupIndex(profile.BuildIndex(query, f.pr), tau)
}

// LookupIndex is Lookup for a precomputed query index. The candidate
// strategy is a planner decision (see PlanMode in planner.go): by default
// the threshold-aware pruned path handles queries it can provably answer
// identically, and the exhaustive overlap accumulation covers the rest
// (τ ≥ 1, empty query bags, tiny collections).
func (f *Index) LookupIndex(q profile.Index, tau float64) []Match {
	m := f.obs.Load()
	var sp *obs.Span
	if m != nil {
		sp = m.col.StartTrace("forest.lookup")
	}
	out, _ := f.lookupIndexSpanned(q, tau, m, sp)
	sp.Finish()
	return out
}

// lookupIndexSpanned is the LookupIndex body with the trace span threaded
// through: the span (nil-safe) receives the plan decision and per-stage
// work attributes, and the chosen plan's name is returned for the explain
// API. Metric recording lives here too, so explained queries count like
// any other.
func (f *Index) lookupIndexSpanned(q profile.Index, tau float64, m *metrics, sp *obs.Span) ([]Match, string) {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	qSize := q.Size()
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	var out []Match
	var plan string
	switch {
	case tau > 1:
		// Trees sharing no pq-gram (distance exactly 1) can qualify only
		// for thresholds above 1; scan the whole forest then.
		plan = planScanAll
		scan := sp.Child("scan")
		overlaps, scanned := f.overlapsLocked(q)
		f.tierOverlapsLocked(q, overlaps, m, sp)
		scan.SetAttr("postings_scanned", scanned)
		scan.SetAttr("candidates", int64(len(overlaps)))
		if m != nil {
			m.lookupCandidates.Add(int64(len(overlaps)))
		}
		for id, e := range f.trees {
			if d := distanceFrom(qSize, int(e.size.Load()), overlaps[id]); d < tau {
				out = append(out, Match{TreeID: id, Distance: d})
			}
		}
		sortMatches(out)
		scan.Finish()
	case f.usePrunedLocked(qSize, tau):
		plan = planPruned
		out = f.lookupPrunedLocked(q, qSize, tau, m, sp)
	default:
		plan = planExhaustive
		out = f.lookupExhaustiveLocked(q, qSize, tau, m, sp)
	}
	sp.SetAttr("plan", int64(planCode(plan)))
	sp.SetAttr("matches", int64(len(out)))
	if m != nil {
		m.lookups.Inc()
		m.lookupMatches.Add(int64(len(out)))
		m.lookupNS.ObserveSince(t0)
	}
	return out, plan
}

// lookupExhaustiveLocked accumulates the full overlap of every tree
// sharing at least one tuple with the query and scores them all — the
// reference lookup the pruned path must match. It requires f.mu held
// (read suffices) and tau ≤ 1.
//
//pqlint:locked f.mu:r
func (f *Index) lookupExhaustiveLocked(q profile.Index, qSize int, tau float64, m *metrics, sp *obs.Span) []Match {
	scan := sp.Child("scan")
	overlaps, scanned := f.overlapsLocked(q)
	f.tierOverlapsLocked(q, overlaps, m, sp)
	scan.SetAttr("postings_scanned", scanned)
	scan.SetAttr("candidates", int64(len(overlaps)))
	if m != nil {
		m.lookupCandidates.Add(int64(len(overlaps)))
	}
	var out []Match
	for id, ov := range overlaps {
		e := f.trees[id]
		if e == nil {
			// A tier answer can race a store-level Remove between the
			// registry removal and the tier's own bookkeeping; the
			// document is gone, so scoring it would resurrect it.
			continue
		}
		if d := distanceFrom(qSize, int(e.size.Load()), ov); d < tau {
			out = append(out, Match{TreeID: id, Distance: d})
		}
	}
	sortMatches(out)
	scan.Finish()
	return out
}

// LookupNearest returns the single nearest indexed tree to the query by
// pq-gram distance (ties by smallest ID), or ok=false on an empty forest.
func (f *Index) LookupNearest(query *tree.Tree) (Match, bool) {
	out := f.LookupIndexTopK(profile.BuildIndex(query, f.pr), 1)
	if len(out) == 0 {
		return Match{}, false
	}
	return out[0], true
}

// LookupTopK returns the k indexed trees nearest to the query by pq-gram
// distance (fewer if the forest is smaller), sorted by ascending distance
// with ties broken by ID. Every plan mode answers it with the same
// exhaustive postings scan.
func (f *Index) LookupTopK(query *tree.Tree, k int) []Match {
	return f.LookupIndexTopK(profile.BuildIndex(query, f.pr), k)
}

// LookupIndexTopK is LookupTopK for a precomputed query index.
func (f *Index) LookupIndexTopK(q profile.Index, k int) []Match {
	m := f.obs.Load()
	var sp *obs.Span
	if m != nil {
		sp = m.col.StartTrace("forest.topk")
	}
	out := f.lookupIndexTopKSpanned(q, k, m, sp)
	sp.Finish()
	return out
}

// lookupIndexTopKSpanned is the LookupIndexTopK body with the trace span
// threaded through; see lookupIndexSpanned. Its plan is always
// planExhaustive.
func (f *Index) lookupIndexTopKSpanned(q profile.Index, k int, m *metrics, sp *obs.Span) []Match {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	qSize := q.Size()
	f.mu.RLock()
	if k <= 0 || len(f.trees) == 0 {
		f.mu.RUnlock()
		return nil
	}
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	sp.SetAttr("k", int64(k))
	out := f.lookupTopExhaustiveLocked(q, qSize, k, m, sp)
	f.mu.RUnlock()
	sp.SetAttr("plan", int64(planCode(planExhaustive)))
	sp.SetAttr("matches", int64(len(out)))
	if m != nil {
		m.lookups.Inc()
		m.topkLookups.Inc()
		m.lookupMatches.Add(int64(len(out)))
		m.lookupNS.ObserveSince(t0)
	}
	return out
}

// lookupTopExhaustiveLocked scores every indexed tree through the
// postings and keeps the k best. Requires f.mu held (read suffices) and
// k > 0.
//
//pqlint:locked f.mu:r
func (f *Index) lookupTopExhaustiveLocked(q profile.Index, qSize, k int, m *metrics, sp *obs.Span) []Match {
	scan := sp.Child("scan")
	overlaps, scanned := f.overlapsLocked(q)
	f.tierOverlapsLocked(q, overlaps, m, sp)
	scan.SetAttr("postings_scanned", scanned)
	scan.SetAttr("candidates", int64(len(f.trees)))
	defer scan.Finish()
	if m != nil {
		m.lookupCandidates.Add(int64(len(f.trees)))
	}
	out := make([]Match, 0, len(f.trees))
	for id, e := range f.trees {
		out = append(out, Match{TreeID: id, Distance: distanceFrom(qSize, int(e.size.Load()), overlaps[id])})
	}
	sortMatches(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// overlapsLocked accumulates |I(query) ∩ I(T)| per tree via the postings.
// It requires f.mu held (read suffices); the query tuples are grouped by
// shard so each stripe is locked once. The second result is the number of
// posting entries scanned — the scan stage's work attribute.
//
//pqlint:locked f.mu:r
func (f *Index) overlapsLocked(q profile.Index) (map[string]int, int64) {
	type tupleCount struct {
		lt profile.LabelTuple
		c  int
	}
	var byShard [numShards][]tupleCount
	for lt, qc := range q {
		si := lt.Shard(shardBits)
		byShard[si] = append(byShard[si], tupleCount{lt, qc})
	}
	ov := make(map[string]int)
	var scanned int64
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		s := &f.shards[si]
		s.mu.RLock()
		for _, tc := range byShard[si] {
			scanned += int64(len(s.postings[tc.lt]))
			for id, c := range s.postings[tc.lt] {
				if c < tc.c {
					ov[id] += c
				} else {
					ov[id] += tc.c
				}
			}
		}
		s.mu.RUnlock()
	}
	return ov, scanned
}

// Pair is one result of a similarity join: two indexed trees and their
// pq-gram distance, with A < B lexicographically.
type Pair struct {
	A, B     string
	Distance float64
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Distance != ps[j].Distance {
			return ps[i].Distance < ps[j].Distance
		}
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// Distance returns the pq-gram distance between two indexed trees.
func (f *Index) Distance(id1, id2 string) (float64, error) {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
		defer func() {
			m.distOps.Inc()
			m.distNS.ObserveSince(t0)
		}()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	a, ok := f.trees[id1]
	if !ok {
		return 0, fmt.Errorf("forest: tree %q not indexed", id1)
	}
	b, ok := f.trees[id2]
	if !ok {
		return 0, fmt.Errorf("forest: tree %q not indexed", id2)
	}
	if id1 == id2 {
		return 0, nil
	}
	// Both bag locks are needed; take them in ID order (the global
	// multi-entry order) so concurrent distance queries cannot deadlock.
	if id2 < id1 {
		a, b = b, a
		id1, id2 = id2, id1
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	//pqlint:allow lockorder — two bag locks of one class, always in ascending tree-ID order (the global multi-entry order), so concurrent Distance calls cannot deadlock
	b.mu.RLock()
	defer b.mu.RUnlock()
	abag, err := f.bagOfLocked(id1, a)
	if err != nil {
		return 0, err
	}
	bbag, err := f.bagOfLocked(id2, b)
	if err != nil {
		return 0, err
	}
	return abag.Distance(bbag), nil
}

// DistanceTo returns the pq-gram distance between a query tree and one
// indexed tree.
func (f *Index) DistanceTo(query *tree.Tree, id string) (float64, error) {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
		defer func() {
			m.distOps.Inc()
			m.distNS.ObserveSince(t0)
		}()
	}
	q := profile.BuildIndex(query, f.pr)
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return 0, fmt.Errorf("forest: tree %q not indexed", id)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	bag, err := f.bagOfLocked(id, e)
	if err != nil {
		return 0, err
	}
	return q.Distance(bag), nil
}

// distanceFrom is the shared scoring expression; it delegates to
// profile.DistanceFrom so the planner's pruning bounds provably evaluate
// the exact formula the scoring path does.
func distanceFrom(qSize, tSize, overlap int) float64 {
	return profile.DistanceFrom(qSize, tSize, overlap)
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].TreeID < ms[j].TreeID
	})
}
