package profile_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pqgram/internal/edit"
	"pqgram/internal/fingerprint"
	"pqgram/internal/paperfix"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

var p33 = profile.Params{P: 3, Q: 3}

func TestParamsValidate(t *testing.T) {
	for _, pr := range []profile.Params{{0, 1}, {1, 0}, {-1, 3}, {3, -1}} {
		if pr.Validate() == nil {
			t.Errorf("Params%v validated", pr)
		}
	}
	for _, pr := range []profile.Params{{1, 1}, {2, 3}, {3, 3}, {1, 2}} {
		if err := pr.Validate(); err != nil {
			t.Errorf("Params%v rejected: %v", pr, err)
		}
	}
	if profile.Default != (profile.Params{P: 3, Q: 3}) {
		t.Error("Default should be 3,3")
	}
}

// TestExample1Count verifies "The total number of pq-grams of T0 is 13".
func TestExample1Count(t *testing.T) {
	t0 := paperfix.T0()
	prof := profile.Build(t0, p33)
	if len(prof) != 13 {
		t.Fatalf("|P0| = %d, want 13", len(prof))
	}
	if c := profile.Count(t0, p33); c != 13 {
		t.Fatalf("Count = %d, want 13", c)
	}
}

// TestExample1Grams verifies the two pq-grams g1, g2 shown in Figure 3.
func TestExample1Grams(t *testing.T) {
	t0 := paperfix.T0()
	prof := profile.Build(t0, p33)
	g1 := paperfix.GramOf(0, 0, 1, 4, 0, 0) // (•,•,n1,n4,•,•)
	g2 := paperfix.GramOf(1, 3, 5, 0, 0, 0) // (n1,n3,n5,•,•,•)
	if _, ok := prof[g1.Key()]; !ok {
		t.Error("g1 of Example 1 missing from profile")
	}
	if _, ok := prof[g2.Key()]; !ok {
		t.Error("g2 of Example 1 missing from profile")
	}
	if g1.Anchor(p33).ID != 1 {
		t.Errorf("g1 anchor = %d, want 1", g1.Anchor(p33).ID)
	}
	if g2.Anchor(p33).ID != 5 {
		t.Errorf("g2 anchor = %d, want 5", g2.Anchor(p33).ID)
	}
}

// TestExample2Profiles verifies the full listed profiles P0 and P2.
func TestExample2Profiles(t *testing.T) {
	t0 := paperfix.T0()
	if got, want := profile.Build(t0, p33), paperfix.ProfileT0(); !got.Equal(want) {
		t.Errorf("P0 mismatch:\n got  %d grams\n want %d grams", len(got), len(want))
	}
	t2, _ := paperfix.T2()
	if got, want := profile.Build(t2, p33), paperfix.ProfileT2(); !got.Equal(want) {
		t.Errorf("P2 mismatch: got %d grams, want %d", len(got), len(want))
	}
}

// TestExample5Deltas verifies Δ2⁺ = P2 \ P0 and Δ2⁻ = P0 \ P2 computed by
// brute-force profile difference (Definition 6 with C2 = P0 ∩ P1 ∩ P2; here
// the diffs of first and last profile coincide with the listed deltas).
func TestExample5BruteForceDeltas(t *testing.T) {
	t0 := paperfix.T0()
	t2, _ := paperfix.T2()
	p0 := profile.Build(t0, p33)
	p2 := profile.Build(t2, p33)

	// For this example the intermediate tree T1 only adds pq-grams around
	// n7, so P2\P0 and P0\P2 match the paper's Δ sets exactly.
	if got, want := p2.Diff(p0), paperfix.DeltaPlus2(); !got.Equal(want) {
		t.Errorf("P2\\P0 has %d grams, want %d", len(got), len(want))
	}
	if got, want := p0.Diff(p2), paperfix.DeltaMinus2(); !got.Equal(want) {
		t.Errorf("P0\\P2 has %d grams, want %d", len(got), len(want))
	}
}

// TestExample5LambdaSets verifies the label-tuple images λ(Δ2⁻), λ(Δ2⁺).
func TestExample5LambdaSets(t *testing.T) {
	if got, want := paperfix.DeltaMinus2().Index(), paperfix.LambdaDeltaMinus2(); !got.Equal(want) {
		t.Errorf("λ(Δ2⁻) mismatch")
	}
	if got, want := paperfix.DeltaPlus2().Index(), paperfix.LambdaDeltaPlus2(); !got.Equal(want) {
		t.Errorf("λ(Δ2⁺) mismatch")
	}
}

// TestExample3DuplicateTuple verifies that the label-tuple (*,a,c,*,*,*)
// occurs twice in the index of T0 (pq-grams anchored at n2 and n4), the
// cnt=2 row of Figure 4.
func TestExample3DuplicateTuple(t *testing.T) {
	idx := profile.BuildIndex(paperfix.T0(), p33)
	lt := profile.TupleOfLabels("*", "a", "c", "*", "*", "*")
	if idx[lt] != 2 {
		t.Fatalf("count of (*,a,c,*,*,*) = %d, want 2", idx[lt])
	}
	if idx.Size() != 13 {
		t.Fatalf("index size = %d, want 13", idx.Size())
	}
	if idx.Distinct() != 12 {
		t.Fatalf("distinct tuples = %d, want 12", idx.Distinct())
	}
}

func TestSingleNodeProfile(t *testing.T) {
	tr := tree.New("x")
	for _, pr := range []profile.Params{{1, 1}, {2, 2}, {3, 3}, {1, 4}} {
		prof := profile.Build(tr, pr)
		if len(prof) != 1 {
			t.Fatalf("params %v: |P| = %d, want 1", pr, len(prof))
		}
		for _, g := range prof {
			if len(g) != pr.Len() {
				t.Fatalf("gram length %d, want %d", len(g), pr.Len())
			}
			if g.Anchor(pr).ID != 1 {
				t.Fatalf("anchor should be the root")
			}
			for i, r := range g {
				if i == pr.P-1 {
					continue
				}
				if r != profile.NullRef {
					t.Fatalf("position %d should be null", i)
				}
			}
		}
	}
}

func TestCountFormulaMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		tr := randomTree(rng, 1+rng.Intn(120))
		for _, pr := range []profile.Params{{1, 1}, {1, 2}, {2, 2}, {3, 3}, {2, 4}, {4, 2}} {
			prof := profile.Build(tr, pr)
			if got, want := len(prof), profile.Count(tr, pr); got != want {
				t.Fatalf("iteration %d params %v: enumerated %d, formula %d", i, pr, got, want)
			}
		}
	}
}

func TestProfileSetOps(t *testing.T) {
	a := profile.Build(paperfix.T0(), p33)
	t2, _ := paperfix.T2()
	b := profile.Build(t2, p33)
	inter := a.Intersect(b)
	union := a.Union(b)
	diffAB := a.Diff(b)
	diffBA := b.Diff(a)
	if len(inter)+len(diffAB) != len(a) {
		t.Error("intersect + diff != a")
	}
	if len(union) != len(a)+len(diffBA) {
		t.Error("union size wrong")
	}
	for k := range inter {
		if _, ok := a[k]; !ok {
			t.Fatal("intersection not subset of a")
		}
		if _, ok := b[k]; !ok {
			t.Fatal("intersection not subset of b")
		}
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal misbehaves")
	}
}

func TestIndexAddSub(t *testing.T) {
	idx := make(profile.Index)
	lt := profile.TupleOfLabels("a", "b")
	idx.Add(lt)
	idx.Add(lt)
	if idx.Size() != 2 || idx.Distinct() != 1 {
		t.Fatal("add counting wrong")
	}
	if err := idx.Sub(lt); err != nil {
		t.Fatal(err)
	}
	if idx[lt] != 1 {
		t.Fatal("sub did not decrement")
	}
	if err := idx.Sub(lt); err != nil {
		t.Fatal(err)
	}
	if idx.Distinct() != 0 {
		t.Fatal("tuple with count 0 should be removed")
	}
	if err := idx.Sub(lt); err == nil {
		t.Fatal("underflow not detected")
	}
}

func TestIndexCloneEqual(t *testing.T) {
	idx := profile.BuildIndex(paperfix.T0(), p33)
	cl := idx.Clone()
	if !idx.Equal(cl) {
		t.Fatal("clone not equal")
	}
	cl.Add(profile.TupleOfLabels("z"))
	if idx.Equal(cl) {
		t.Fatal("clone aliased")
	}
	cl2 := idx.Clone()
	lt := profile.TupleOfLabels("*", "a", "c", "*", "*", "*")
	cl2[lt] = 99
	if idx.Equal(cl2) {
		t.Fatal("Equal must compare multiplicities")
	}
}

func TestDistanceIdentical(t *testing.T) {
	tr := paperfix.T0()
	if d := profile.Distance(tr, tr.Clone(), p33); d != 0 {
		t.Fatalf("distance to identical tree = %g, want 0", d)
	}
}

func TestDistanceDisjoint(t *testing.T) {
	a := tree.MustParse("a(b c)")
	b := tree.MustParse("x(y z)")
	if d := profile.Distance(a, b, p33); d != 1 {
		t.Fatalf("distance of label-disjoint trees = %g, want 1", d)
	}
}

func TestDistanceEmptyIndexes(t *testing.T) {
	var a, b profile.Index
	if d := a.Distance(b); d != 0 {
		t.Fatalf("distance of empty indexes = %g, want 0", d)
	}
}

func TestDistanceSymmetricAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		a := randomTree(rng, 1+rng.Intn(60))
		b := randomTree(rng, 1+rng.Intn(60))
		ia := profile.BuildIndex(a, p33)
		ib := profile.BuildIndex(b, p33)
		dab := ia.Distance(ib)
		dba := ib.Distance(ia)
		if dab != dba {
			t.Fatalf("asymmetric: %g vs %g", dab, dba)
		}
		if dab < 0 || dab > 1 || math.IsNaN(dab) {
			t.Fatalf("distance out of range: %g", dab)
		}
	}
}

// TestNormalizedDistanceIsNotAMetric pins three bags for which the
// normalized pq-gram distance violates the triangle inequality, which is
// why no metric-tree pruning may be built on it directly.
func TestNormalizedDistanceIsNotAMetric(t *testing.T) {
	a := profile.Index{profile.TupleOfLabels("a", "a", "a"): 1}
	b := profile.Index{profile.TupleOfLabels("b", "b", "b"): 1}
	c := profile.Index{
		profile.TupleOfLabels("a", "a", "a"): 1,
		profile.TupleOfLabels("b", "b", "b"): 1,
	}
	dab, dac, dcb := a.Distance(b), a.Distance(c), c.Distance(b)
	if dab <= dac+dcb {
		t.Fatalf("expected a triangle violation, got %v ≤ %v + %v", dab, dac, dcb)
	}
}

func TestDistanceDecreasesWithSmallEdit(t *testing.T) {
	// An edited tree should be closer to the original than an unrelated one.
	rng := rand.New(rand.NewSource(9))
	orig := randomTree(rng, 80)
	edited := orig.Clone()
	leaf := edited.Leaves()[0]
	if _, err := edit.Ren(leaf.ID(), "renamed-once").Apply(edited); err != nil {
		t.Fatal(err)
	}
	unrelated := tree.MustParse("q(w e r t y)")
	dEdit := profile.Distance(orig, edited, p33)
	dFar := profile.Distance(orig, unrelated, p33)
	if dEdit <= 0 {
		t.Fatalf("edited tree distance = %g, want > 0", dEdit)
	}
	if dEdit >= dFar {
		t.Fatalf("edited distance %g not smaller than unrelated %g", dEdit, dFar)
	}
}

func TestLabelTupleSensitivity(t *testing.T) {
	// The tuple fingerprint must distinguish order, content and length.
	a := profile.TupleOfLabels("a", "b", "c")
	if a != profile.TupleOfLabels("a", "b", "c") {
		t.Fatal("tuple fingerprint not deterministic")
	}
	distinct := []profile.LabelTuple{
		a,
		profile.TupleOfLabels("a", "c", "b"),
		profile.TupleOfLabels("c", "b", "a"),
		profile.TupleOfLabels("a", "b"),
		profile.TupleOfLabels("a", "b", "c", "*"),
		profile.TupleOfLabels("*", "a", "b", "c"),
		profile.TupleOfLabels("a", "b", "*"),
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if distinct[i] == distinct[j] {
				t.Fatalf("tuples %d and %d collide", i, j)
			}
		}
	}
}

func TestGramKeyDistinguishesIDs(t *testing.T) {
	// Equal labels, different node IDs: profiles must distinguish them.
	a := paperfix.GramOf(0, 0, 1, 2, 3, 4)
	h := fingerprint.Of
	b := profile.Gram{
		profile.NullRef, profile.NullRef,
		{ID: 1, Label: h("a")}, {ID: 9, Label: h("c")},
		{ID: 3, Label: h("b")}, {ID: 4, Label: h("c")},
	}
	if a.Key() == b.Key() {
		t.Fatal("keys should differ for different IDs")
	}
	if a.LabelTuple() != b.LabelTuple() {
		t.Fatal("label tuples should match for equal labels")
	}
}

func TestForEachGramBufferReuseSafe(t *testing.T) {
	// Build copies grams; two consecutive builds must agree.
	tr := paperfix.T0()
	p1 := profile.Build(tr, p33)
	p2 := profile.Build(tr, p33)
	if !p1.Equal(p2) {
		t.Fatal("repeated builds disagree")
	}
}

func TestQuickProfileIndexConsistency(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, int(sz%100)+1)
		prof := profile.Build(tr, p33)
		return prof.Index().Equal(profile.BuildIndex(tr, p33))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectBound(t *testing.T) {
	f := func(s1, s2 int64) bool {
		rng1 := rand.New(rand.NewSource(s1))
		rng2 := rand.New(rand.NewSource(s2))
		a := profile.BuildIndex(randomTree(rng1, 40), p33)
		b := profile.BuildIndex(randomTree(rng2, 40), p33)
		i := a.IntersectSize(b)
		return i >= 0 && i <= a.Size() && i <= b.Size() &&
			a.UnionSize(b) == a.Size()+b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomTree(rng *rand.Rand, n int) *tree.Tree {
	labels := []string{"a", "b", "c", "d", "e", "f"}
	tr := tree.New(labels[rng.Intn(len(labels))])
	nodes := []*tree.Node{tr.Root()}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		pos := rng.Intn(parent.Fanout()+1) + 1
		c := tr.AddChildAt(parent, labels[rng.Intn(len(labels))], pos)
		nodes = append(nodes, c)
	}
	return tr
}

// TestShardRouting: the shard hash stays in range, is deterministic, and
// spreads the tuples of a real document across stripes well enough that a
// lock-striped index actually stripes (no stripe hoards more than a few
// times its fair share).
func TestShardRouting(t *testing.T) {
	const bits = 5
	rng := rand.New(rand.NewSource(7))
	idx := profile.BuildIndex(randomTestTree(rng, 600), p33)
	if len(idx) < 200 {
		t.Fatalf("fixture too small: %d distinct tuples", len(idx))
	}
	counts := make([]int, 1<<bits)
	for lt := range idx {
		s := lt.Shard(bits)
		if s >= 1<<bits {
			t.Fatalf("Shard(%d) = %d out of range", bits, s)
		}
		if s != lt.Shard(bits) {
			t.Fatal("Shard not deterministic")
		}
		counts[s]++
	}
	fair := len(idx) / (1 << bits)
	for s, c := range counts {
		if c > 4*fair+8 {
			t.Fatalf("shard %d holds %d of %d tuples (fair share %d)", s, c, len(idx), fair)
		}
	}
}

// randomTestTree builds a random labeled tree of n nodes for routing tests.
func randomTestTree(rng *rand.Rand, n int) *tree.Tree {
	tr := tree.New("root")
	nodes := []*tree.Node{tr.Root()}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		nd := tr.AddChild(parent, string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))))
		nodes = append(nodes, nd)
	}
	return tr
}
