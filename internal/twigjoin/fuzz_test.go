package twigjoin

import (
	"slices"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// FuzzIndexProbes: for a tree built from the fuzz bytes, every (node,
// label) probe of the index equals a walk of the tree — ChildrenByLabel
// the node's child list, DescendantsByLabel its subtree, Stream the
// whole document in preorder. Each byte pair (p, l) adds one node under
// parent p mod (nodes so far) with label l mod 4 drawn from {l0, l2, l3,
// l4}; the root carries l4, so l1 is in the dictionary and within the
// document's label range but absent, l5 and l6 are interned past the
// document's largest label, and the probes also ask for ids past the
// dictionary. Every node is probed, so the root, the last node id and
// the leaves are always covered.
func FuzzIndexProbes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 3, 0, 1, 0, 0}) // star, interleaved duplicate labels
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 1})       // chain
	f.Add([]byte{0, 3, 0, 2, 1, 3, 1, 3, 2, 0, 2, 3}) // two levels of mixed buckets
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		dict, labels := treetest.Alphabet(7)
		use := []labeltree.LabelID{labels[0], labels[2], labels[3], labels[4]}
		b := labeltree.NewBuilder(dict)
		b.AddRoot(dict.Name(labels[4]))
		for i := 0; i+1 < len(data); i += 2 {
			b.AddChildID(int32(int(data[i])%b.Len()), use[int(data[i+1])%len(use)])
		}
		tr := b.Build()
		x := NewIndex(tr)

		probes := append(slices.Clone(labels), labeltree.LabelID(dict.Len()), labeltree.LabelID(dict.Len()+100))
		var walk func(n int32, l labeltree.LabelID, out []int32) []int32
		walk = func(n int32, l labeltree.LabelID, out []int32) []int32 {
			for _, c := range tr.Children(n) {
				if tr.Label(c) == l {
					out = append(out, c)
				}
				out = walk(c, l, out)
			}
			return out
		}
		for _, l := range probes {
			var stream []int32
			if tr.Label(0) == l {
				stream = []int32{0}
			}
			if got, want := x.Stream(l), walk(0, l, stream); !slices.Equal(got, want) {
				t.Fatalf("Stream(%d) = %v, want %v", l, got, want)
			}
			for v := int32(0); int(v) < tr.Size(); v++ {
				var kids []int32
				for _, c := range tr.Children(v) {
					if tr.Label(c) == l {
						kids = append(kids, c)
					}
				}
				if got := x.ChildrenByLabel(v, l); !slices.Equal(got, kids) {
					t.Fatalf("ChildrenByLabel(%d, %d) = %v, want %v", v, l, got, kids)
				}
				if got, want := x.DescendantsByLabel(v, l), walk(v, l, nil); !slices.Equal(got, want) {
					t.Fatalf("DescendantsByLabel(%d, %d) = %v, want %v", v, l, got, want)
				}
			}
		}
	})
}
