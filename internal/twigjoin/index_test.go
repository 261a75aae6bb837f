package twigjoin

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// TestChildrenByLabelAgainstWalk checks the child-table probe against a
// direct walk of the child list, for every node and label of random
// trees.
func TestChildrenByLabelAgainstWalk(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict, labels := treetest.Alphabet(4)
		tr := treetest.RandomTree(rng, 200, labels, dict)
		x := NewIndex(tr)
		for i := int32(0); int(i) < tr.Size(); i++ {
			for _, l := range labels {
				var want []int32
				for _, c := range tr.Children(i) {
					if tr.Label(c) == l {
						want = append(want, c)
					}
				}
				got := x.ChildrenByLabel(i, l)
				if len(got) != len(want) {
					t.Fatalf("seed %d node %d label %d: got %v want %v", seed, i, l, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("seed %d node %d label %d: got %v want %v", seed, i, l, got, want)
					}
				}
			}
		}
	}
}

// TestDescendantsByLabelAgainstWalk checks the range probe against a
// subtree walk.
func TestDescendantsByLabelAgainstWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict, labels := treetest.Alphabet(3)
	tr := treetest.RandomTree(rng, 300, labels, dict)
	x := NewIndex(tr)
	for i := int32(0); int(i) < tr.Size(); i++ {
		for _, l := range labels {
			var want []int32
			var walk func(n int32)
			walk = func(n int32) {
				for _, c := range tr.Children(n) {
					if tr.Label(c) == l {
						want = append(want, c)
					}
					walk(c)
				}
			}
			walk(i)
			got := x.DescendantsByLabel(i, l)
			if len(got) != len(want) {
				t.Fatalf("node %d label %d: got %d want %d", i, l, len(got), len(want))
			}
			// The probe returns document order; the walk returns DFS
			// order, which is the same thing.
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("node %d label %d: got %v want %v", i, l, got, want)
				}
			}
		}
	}
}

// TestExecZeroAlloc gates the executor fast path: index probes and whole
// enumerations over a warmed scratch pool must not allocate. Under -race
// sync.Pool drops pooled scratch on purpose, so only the probe check,
// which uses no pool, runs there.
func TestExecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dict, labels := treetest.Alphabet(3)
	tr := treetest.RandomTree(rng, 500, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(l1,//l2)", dict)

	if n := testing.AllocsPerRun(100, func() {
		_ = x.ChildrenByLabel(0, labels[1])
		_ = x.DescendantsByLabel(0, labels[2])
	}); n != 0 {
		t.Fatalf("index probes allocate: %v allocs/op", n)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops pooled enumeration scratch under -race")
	}
	var sink int64
	emit := func(Match) bool { return true }
	Enumerate(x, q, nil, emit) // warm the scratch pool
	if n := testing.AllocsPerRun(50, func() {
		st := Enumerate(x, q, nil, emit)
		sink += st.Matches
	}); n != 0 {
		t.Fatalf("Enumerate allocates: %v allocs/op", n)
	}

	order := []int32{0, 2, 1}
	if n := testing.AllocsPerRun(50, func() {
		st, _ := EnumerateContext(context.Background(), x, q, order, nil, emit)
		sink += st.Matches
	}); n != 0 {
		t.Fatalf("EnumerateContext allocates: %v allocs/op", n)
	}
	_ = sink
}

// TestEnumerateContextBudget checks that a too-small node budget stops
// the execution with ErrNodeBudget and partial stats, and that a
// sufficient budget reproduces the unbudgeted count.
func TestEnumerateContextBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict, labels := treetest.Alphabet(2)
	tr := treetest.RandomTree(rng, 400, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(//l1)", dict)

	full := Enumerate(x, q, nil, func(Match) bool { return true })
	if full.Candidates < 10 {
		t.Skip("tree too small to exercise the budget")
	}

	budget := full.Candidates / 2
	st, err := CountContext(context.Background(), x, q, nil, &budget)
	if !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("want ErrNodeBudget, got %v", err)
	}
	if st.Candidates >= full.Candidates || st.Candidates == 0 {
		t.Fatalf("partial candidates %d out of range (full %d)", st.Candidates, full.Candidates)
	}

	budget = full.Candidates + 1
	st, err = CountContext(context.Background(), x, q, nil, &budget)
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if st.Matches != full.Matches {
		t.Fatalf("budgeted count %d != full count %d", st.Matches, full.Matches)
	}
}

// randomQuery draws a twig of 1..4 nodes over labels with a random axis
// on every edge and at the root, plus a random parent-before-child bind
// order.
func randomQuery(rng *rand.Rand, labels []labeltree.LabelID) (Query, []int32) {
	p := treetest.RandomPattern(rng, 1+rng.Intn(4), labels)
	axes := make([]Axis, p.Size())
	for i := range axes {
		axes[i] = Axis(rng.Intn(2))
	}
	order := make([]int32, 0, p.Size())
	ready := []int32{0}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		n := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, n)
		for c := int32(1); int(c) < p.Size(); c++ {
			if p.Parent(c) == n {
				ready = append(ready, c)
			}
		}
	}
	return MustQuery(p, axes), order
}

// matchDigest folds an emitted match sequence into a count and an
// order-sensitive hash.
type matchDigest struct {
	n    int64
	hash uint64
}

func (d *matchDigest) emit(m Match) bool {
	d.n++
	for _, v := range m {
		d.hash = (d.hash ^ uint64(v)) * 1099511628211
	}
	d.hash = (d.hash ^ 0xff) * 1099511628211
	return true
}

// TestEnumerateMatchesScan checks the indexed executor against the
// index-free scan reference on random trees with duplicate sibling
// labels and twigs using both axes, under stored and random bind orders:
// the emitted match sequence and Stats must be identical, and so must the
// partial results when a small node budget shared across consecutive
// queries runs out. Stats.Candidates is the planner's calibration signal
// and the budgeted partial count is the degraded answer, so both are
// pinned to the reference rather than to the index layout.
func TestEnumerateMatchesScan(t *testing.T) {
	var matches, truncated int
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict, labels := treetest.Alphabet(3)
		tr := treetest.RandomTree(rng, 60+rng.Intn(60), labels, dict)
		x := NewIndex(tr)
		budgetX, budgetS := int64(400), int64(400)
		for k := 0; k < 60; k++ {
			q, order := randomQuery(rng, labels)
			if k%2 == 0 {
				order = nil
			}
			var dx, ds matchDigest
			stx, errx := EnumerateContext(context.Background(), x, q, order, nil, dx.emit)
			sts, errs := scanEnumerate(tr, q, order, nil, ds.emit)
			if errx != nil || errs != nil || stx != sts || dx != ds {
				t.Fatalf("seed %d query %s order %v: indexed %+v %v %+v, scan %+v %v %+v",
					seed, q.String(dict), order, stx, errx, dx, sts, errs, ds)
			}

			dx, ds = matchDigest{}, matchDigest{}
			stx, errx = EnumerateContext(context.Background(), x, q, order, &budgetX, dx.emit)
			sts, errs = scanEnumerate(tr, q, order, &budgetS, ds.emit)
			if !errors.Is(errx, errs) || stx != sts || dx != ds || budgetX != budgetS {
				t.Fatalf("seed %d query %s order %v under budget: indexed %+v %v %+v left %d, scan %+v %v %+v left %d",
					seed, q.String(dict), order, stx, errx, dx, budgetX, sts, errs, ds, budgetS)
			}
			matches += int(dx.n)
			if errx != nil {
				truncated++
			}
			if budgetX <= 0 {
				budgetX, budgetS = 400, 400
			}
		}
	}
	if matches == 0 || truncated == 0 {
		t.Fatalf("workload too weak: %d matches, %d budget-truncated queries", matches, truncated)
	}

	// A twig past maxSharedScan nodes takes the path that guards every
	// query node with the injectivity bitmap: a star of same-labeled
	// leaves, matched against a copy of itself up to the 50th match.
	dict, labels := treetest.Alphabet(2)
	lab := make([]labeltree.LabelID, maxSharedScan+8)
	par := make([]int32, len(lab))
	for i := range lab {
		lab[i], par[i] = labels[1], 0
	}
	lab[0], par[0] = labels[0], -1
	p := labeltree.MustPattern(lab, par)
	tr := treetest.TreeFromPattern(p, dict)
	q := MustQuery(p, nil)
	var dx, ds matchDigest
	first50 := func(d *matchDigest) func(Match) bool {
		return func(m Match) bool { return d.emit(m) && d.n < 50 }
	}
	stx, _ := EnumerateContext(context.Background(), NewIndex(tr), q, nil, nil, first50(&dx))
	sts, _ := scanEnumerate(tr, q, nil, nil, first50(&ds))
	if stx != sts || dx != ds || dx.n != 50 {
		t.Fatalf("large twig: indexed %+v %+v, scan %+v %+v", stx, dx, sts, ds)
	}
	t.Logf("%d matches, %d budget-truncated queries", matches, truncated)
}

// TestEnumerateContextCanceled checks both the fail-fast path and the
// periodic poll.
func TestEnumerateContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict, labels := treetest.Alphabet(2)
	tr := treetest.RandomTree(rng, 2000, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(//l1,//l0)", dict)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountContext(ctx, x, q, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// A mid-run cancel stops at the next poll; if the execution finishes
	// before a poll fires, it must have produced the full count.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var visits int
	st, err := EnumerateContext(ctx2, x, q, nil, nil, func(Match) bool {
		visits++
		if visits == 3 {
			cancel2()
		}
		return true
	})
	if err == nil {
		if full := Count(x, q); st.Matches != full {
			t.Fatalf("no cancel error but partial count %d != %d", st.Matches, full)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestIndexerCachesByTree checks index identity per tree pointer.
func TestIndexerCachesByTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dict, labels := treetest.Alphabet(2)
	_ = dict
	t1 := treetest.RandomTree(rng, 50, labels, dict)
	t2 := treetest.RandomTree(rng, 50, labels, dict)
	ix := NewIndexer()
	a := ix.For(t1)
	if b := ix.For(t1); b != a {
		t.Fatal("same tree produced two indexes")
	}
	if c := ix.For(t2); c == a {
		t.Fatal("distinct trees shared an index")
	}
	got := ix.ForAll([]*labeltree.Tree{t1, t2, t1})
	if got[0] != a || got[2] != a || got[1] == a {
		t.Fatal("ForAll alignment wrong")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

// TestQueryParserGuards checks the fuzz-safety limits.
func TestQueryParserGuards(t *testing.T) {
	dict := labeltree.NewDict()
	deep := ""
	for i := 0; i < maxParseDepth+2; i++ {
		deep += "a("
	}
	if _, err := ParseQuery(deep, dict); err == nil {
		t.Fatal("deep query accepted")
	}
}
