package estimate

import (
	"math/rand"
	"sort"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
	"treelattice/internal/workload"
)

// refDecomposition is the pattern-building form of a decomposition: the
// three sub-patterns built with RemoveLeaf/removeTwo, then keyed, and
// the signature spelled out in keys.
type refDecomposition struct {
	t1Key, t2Key, commonKey labeltree.Key
	lo, hi                  labeltree.Key
}

// refDecompositions enumerates leaf-pair decompositions the direct way:
// build T1, T2 and the common part for every leaf pair, key each, and
// sort by (lo, hi, common) key with sort.Slice.
func refDecompositions(q labeltree.Pattern) []refDecomposition {
	leaves := q.Leaves()
	var out []refDecomposition
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			d := refDecomposition{
				t1Key:     q.RemoveLeaf(leaves[i]).Key(),
				t2Key:     q.RemoveLeaf(leaves[j]).Key(),
				commonKey: removeTwo(q, leaves[i], leaves[j]).Key(),
			}
			d.lo, d.hi = d.t1Key, d.t2Key
			if d.hi < d.lo {
				d.lo, d.hi = d.hi, d.lo
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.lo != y.lo {
			return x.lo < y.lo
		}
		if x.hi != y.hi {
			return x.hi < y.hi
		}
		return x.commonKey < y.commonKey
	})
	return out
}

// removeTwo removes two degree-1 nodes from q through Subpattern.
func removeTwo(q labeltree.Pattern, u, v int32) labeltree.Pattern {
	keep := make([]int32, 0, q.Size()-2)
	for i := int32(0); int(i) < q.Size(); i++ {
		if i != u && i != v {
			keep = append(keep, i)
		}
	}
	return q.Subpattern(keep)
}

// TestDecompositionsMatchReference checks the key-first enumerator against
// the pattern-building reference: the same (T1, T2, common) key sequence
// in the same order, and every lazily built sub-twig keys to the key
// recorded for it.
func TestDecompositionsMatchReference(t *testing.T) {
	_, alphabet := treetest.Alphabet(3) // few labels: many duplicate siblings
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for iter := 0; iter < 400; iter++ {
		q := treetest.RandomPattern(rng, 3+iter%12, alphabet)
		if iter%2 == 1 {
			q = treetest.ShufflePattern(rng, q)
		}
		got, want := decompositions(q), refDecompositions(q)
		if len(got) != len(want) {
			t.Fatalf("%v: %d decompositions, reference has %d", q, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			if d.t1Key != w.t1Key || d.t2Key != w.t2Key || d.commonKey != w.commonKey {
				t.Fatalf("%v: decomposition %d differs from the reference", q, i)
			}
			subs := []struct {
				t   subTwig
				key labeltree.Key
			}{
				{subTwig{from: q, u: d.u, v: -1}, d.t1Key},
				{subTwig{from: q, u: d.v, v: -1}, d.t2Key},
				{subTwig{from: q, u: d.u, v: d.v}, d.commonKey},
			}
			for _, s := range subs {
				p := s.t.pattern()
				if p.Size() != s.t.size() || p.Key() != s.key {
					t.Fatalf("%v: sub-twig without (%d, %d) does not key to its recorded key", q, s.t.u, s.t.v)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no decompositions checked")
	}
}

// xmarkWorkload mines a K=4 summary of a datagen xmark document and
// samples distinct positive twigs of sizes 6–8 from it.
func xmarkWorkload(tb testing.TB, scale, perSize int) (*lattice.Summary, []labeltree.Pattern) {
	tb.Helper()
	tr, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: scale, Seed: 1}, labeltree.NewDict())
	if err != nil {
		tb.Fatal(err)
	}
	sum, err := mine.Mine(tr, 4, mine.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	pos, err := workload.Positive(tr, workload.Options{Sizes: []int{6, 7, 8}, PerSize: perSize, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	var qs []labeltree.Pattern
	for _, size := range []int{6, 7, 8} {
		for _, q := range pos[size] {
			qs = append(qs, q.Pattern)
		}
	}
	if len(qs) == 0 {
		tb.Fatal("empty workload")
	}
	return sum, qs
}

// BenchmarkRecursiveVoting measures the served default estimator —
// recursive decomposition with voting, no SubCache — over distinct
// positive twigs of sizes 6–8, one twig per op.
func BenchmarkRecursiveVoting(b *testing.B) {
	sum, qs := xmarkWorkload(b, 20000, 100)
	r := NewRecursive(sum, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = r.Estimate(qs[i%len(qs)])
	}
}

// benchSink keeps benchmarked results live.
var benchSink float64

// TestRecursiveAllocsBounded gates the allocation profile of one voting
// estimate of a fixed size-8 twig. The bound is the measured count of the
// key-first decomposition (481) with one slot of headroom; building three
// sub-patterns per leaf pair costs about seven times as many.
func TestRecursiveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled key scratch under -race")
	}
	sum, qs := xmarkWorkload(t, 5000, 5)
	q := qs[len(qs)-1]
	if q.Size() != 8 {
		t.Fatalf("workload's last twig has %d nodes, want 8", q.Size())
	}
	r := NewRecursive(sum, true)
	allocs := testing.AllocsPerRun(50, func() { r.Estimate(q) })
	if allocs > 482 {
		t.Fatalf("voting estimate of a size-8 twig allocates %.0f per call, want <= 482", allocs)
	}
}
