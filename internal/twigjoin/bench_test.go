package twigjoin

import (
	"math/rand"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// scanEnumerate evaluates q without the index: candidate lists come from
// linear child-list walks (child axis) and preorder subtree walks
// (descendant axis and the root stream) — the access pattern the index
// replaces. It is the executor's reference: it binds in the same order
// (nil = stored numbering), emits the same matches in the same order,
// and charges the same per-candidate node budget, so its Stats and stop
// reason must equal EnumerateContext's.
func scanEnumerate(tr *labeltree.Tree, q Query, bindOrder []int32, nodeBudget *int64, emit func(Match) bool) (Stats, error) {
	p := q.Pattern
	order := bindOrder
	if order == nil {
		order = make([]int32, p.Size())
		for i := range order {
			order[i] = int32(i)
		}
	}
	assigned := make(Match, p.Size())
	used := make(map[int32]bool, p.Size())
	var st Stats
	var err error
	stopped := false
	var subtree func(n int32, label labeltree.LabelID, out []int32) []int32
	subtree = func(n int32, label labeltree.LabelID, out []int32) []int32 {
		for _, c := range tr.Children(n) {
			if tr.Label(c) == label {
				out = append(out, c)
			}
			out = subtree(c, label, out)
		}
		return out
	}
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(order) {
			st.Matches++
			if !emit(assigned) {
				stopped = true
			}
			return
		}
		i := order[depth]
		label := p.Label(i)
		var candidates []int32
		if par := p.Parent(i); par < 0 {
			if tr.Label(0) == label {
				candidates = []int32{0}
			}
			if q.Axes[i] == Descendant {
				candidates = subtree(0, label, candidates)
			}
		} else {
			pv := assigned[par]
			if q.Axes[i] == Child {
				for _, c := range tr.Children(pv) {
					if tr.Label(c) == label {
						candidates = append(candidates, c)
					}
				}
			} else {
				candidates = subtree(pv, label, nil)
			}
		}
		for _, v := range candidates {
			st.Candidates++
			if nodeBudget != nil {
				if *nodeBudget <= 0 {
					err = ErrNodeBudget
					stopped = true
					return
				}
				*nodeBudget--
			}
			if used[v] {
				continue
			}
			used[v] = true
			assigned[i] = v
			rec(depth + 1)
			used[v] = false
			if stopped {
				return
			}
		}
	}
	rec(0)
	return st, err
}

// scanCount counts q's matches with scanEnumerate; the
// BenchmarkTwigExecIndexed baseline.
func scanCount(tr *labeltree.Tree, q Query) int64 {
	st, _ := scanEnumerate(tr, q, nil, nil, func(Match) bool { return true })
	return st.Matches
}

// BenchmarkTwigExecIndexed compares the indexed executor against the
// unindexed tree-walk scan on the same query and document.
func BenchmarkTwigExecIndexed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	dict, labels := treetest.Alphabet(6)
	tr := treetest.RandomTree(rng, 20000, labels, dict)
	q := MustParseQuery("//l0(l1,//l2(l3))", dict)
	x := NewIndex(tr)
	want := Count(x, q)
	if got := scanCount(tr, q); got != want {
		b.Fatalf("scan count %d != indexed count %d", got, want)
	}

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Count(x, q) != want {
				b.Fatal("count mismatch")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if scanCount(tr, q) != want {
				b.Fatal("count mismatch")
			}
		}
	})
}

// probe is one (node, label) index probe.
type probe struct {
	node  int32
	label labeltree.LabelID
}

// xmarkProbes generates an xmark document and draws probes the way twig
// execution issues them: child probes name the label of one of the
// node's children, descendant probes the label of one of its
// descendants (an ancestor a few levels up from a random node).
func xmarkProbes(b *testing.B) (x *Index, child, desc []probe) {
	b.Helper()
	dict := labeltree.NewDict()
	tr, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: 20000, Seed: 1}, dict)
	if err != nil {
		b.Fatal(err)
	}
	x = NewIndex(tr)
	rng := rand.New(rand.NewSource(1))
	for len(child) < 4096 {
		v := int32(rng.Intn(tr.Size()))
		if kids := tr.Children(v); len(kids) > 0 {
			child = append(child, probe{v, tr.Label(kids[rng.Intn(len(kids))])})
		}
	}
	for len(desc) < 4096 {
		d := int32(rng.Intn(tr.Size()))
		a := d
		for up := 1 + rng.Intn(3); up > 0 && tr.Parent(a) >= 0; up-- {
			a = tr.Parent(a)
		}
		if a != d {
			desc = append(desc, probe{a, tr.Label(d)})
		}
	}
	return x, child, desc
}

// probeSink keeps the probe benchmarks' results live.
var probeSink int

// BenchmarkChildrenByLabel times one child-axis probe (ns/op per probe).
func BenchmarkChildrenByLabel(b *testing.B) {
	x, probes, _ := xmarkProbes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%len(probes)]
		probeSink += len(x.ChildrenByLabel(pr.node, pr.label))
	}
}

// BenchmarkDescendantsByLabel times one descendant-axis probe (ns/op per
// probe).
func BenchmarkDescendantsByLabel(b *testing.B) {
	x, _, probes := xmarkProbes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%len(probes)]
		probeSink += len(x.DescendantsByLabel(pr.node, pr.label))
	}
}
