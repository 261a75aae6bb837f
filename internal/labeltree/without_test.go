package labeltree_test

import (
	"math/rand"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// samePattern reports whether a and b are equal array for array: the
// same labels and parents under the same numbering.
func samePattern(a, b labeltree.Pattern) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := int32(0); int(i) < a.Size(); i++ {
		if a.Label(i) != b.Label(i) || a.Parent(i) != b.Parent(i) {
			return false
		}
	}
	return true
}

// rest returns p's nodes other than u and v, ascending.
func rest(p labeltree.Pattern, u, v int32) []int32 {
	var out []int32
	for i := int32(0); int(i) < p.Size(); i++ {
		if i != u && i != v {
			out = append(out, i)
		}
	}
	return out
}

// withRootPath returns p under a new single-child root labeled l, so the
// result's root has degree 1.
func withRootPath(p labeltree.Pattern, l labeltree.LabelID) labeltree.Pattern {
	labels := []labeltree.LabelID{l}
	parent := []int32{-1}
	for i := int32(0); int(i) < p.Size(); i++ {
		labels = append(labels, p.Label(i))
		parent = append(parent, p.Parent(i)+1)
	}
	return labeltree.MustPattern(labels, parent)
}

// removals calls fn for every single leaf (v = -1) and every leaf pair,
// in both orders, of p whose removal leaves a pattern.
func removals(p labeltree.Pattern, fn func(u, v int32)) {
	leaves := p.Leaves()
	for a, u := range leaves {
		fn(u, -1)
		if p.Size() <= 2 {
			continue
		}
		for _, v := range leaves[a+1:] {
			fn(u, v)
			fn(v, u)
		}
	}
}

// removalShapes yields random patterns of sizes 2–16 over small
// alphabets (many duplicate sibling labels), each with a shuffled
// isomorph and a degree-1-root variant.
func removalShapes(fn func(p labeltree.Pattern)) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 4} {
		_, alphabet := treetest.Alphabet(n)
		for size := 2; size <= 16; size++ {
			for iter := 0; iter < 12; iter++ {
				p := treetest.RandomPattern(rng, size, alphabet)
				fn(p)
				fn(treetest.ShufflePattern(rng, p))
				if size < 16 {
					fn(withRootPath(p, alphabet[0]))
				}
			}
		}
	}
}

func TestWithoutMatchesSubpattern(t *testing.T) {
	cases, rootCases := 0, 0
	removalShapes(func(p labeltree.Pattern) {
		removals(p, func(u, v int32) {
			got, want := p.Without(u, v), p.Subpattern(rest(p, u, v))
			if !samePattern(got, want) {
				t.Fatalf("Without(%d, %d) of %v = %v, Subpattern gives %v", u, v, p, got, want)
			}
			if v < 0 && !samePattern(p.RemoveLeaf(u), want) {
				t.Fatalf("RemoveLeaf(%d) of %v differs from Subpattern", u, p)
			}
			cases++
			if u == 0 || v == 0 {
				rootCases++
			}
		})
	})
	if rootCases == 0 || cases < 1000 {
		t.Fatalf("checked %d removals, %d of a degree-1 root", cases, rootCases)
	}
}

func TestKeyWithoutMatchesKey(t *testing.T) {
	removalShapes(func(p labeltree.Pattern) {
		if p.KeyWithout(-1, -1) != p.Key() {
			t.Fatalf("KeyWithout(-1, -1) of %v differs from Key", p)
		}
		removals(p, func(u, v int32) {
			want := p.Without(u, v).Key()
			if got := p.KeyWithout(u, v); got != want {
				t.Fatalf("KeyWithout(%d, %d) of %v = %x, want %x", u, v, p, got, want)
			}
		})
	})
}

func TestWithoutPanics(t *testing.T) {
	dict := labeltree.NewDict()
	p := labeltree.MustParsePattern("a(b(c),d)", dict) // 0:a 1:b 2:c 3:d
	for _, tc := range []struct {
		name string
		p    labeltree.Pattern
		u, v int32
	}{
		{"internal node", p, 1, -1},
		{"branching root", p, 0, -1},
		{"same node twice", p, 2, 2},
		{"out of range", p, 4, -1},
		{"single node", labeltree.SingleNode(0), 0, -1},
		{"both nodes of a pair", labeltree.MustParsePattern("a(b)", dict), 0, 1},
	} {
		for _, fn := range []func(){
			func() { tc.p.Without(tc.u, tc.v) },
			func() { tc.p.KeyWithout(tc.u, tc.v) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: removing (%d, %d) did not panic", tc.name, tc.u, tc.v)
					}
				}()
				fn()
			}()
		}
	}
}

// FuzzKeyWithout: for any shape and any leaf or leaf pair, Without equals
// Subpattern of the remaining nodes, and KeyWithout equals the key of
// the built pattern.
func FuzzKeyWithout(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0), uint8(0))
	f.Add([]byte{0, 3, 6, 4, 1, 7}, uint8(1), uint8(2))
	f.Add([]byte{5, 3, 4, 10, 13, 16, 19}, uint8(0), uint8(3)) // degree-1 root
	f.Add([]byte{0, 0}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, shape []byte, i, j uint8) {
		if len(shape) == 0 || len(shape) > 24 {
			return
		}
		// Byte k gives node k a label (mod 3) and a parent among 0..k-1.
		labels := make([]labeltree.LabelID, len(shape))
		parent := make([]int32, len(shape))
		parent[0] = -1
		for k, b := range shape {
			labels[k] = labeltree.LabelID(b % 3)
			if k > 0 {
				parent[k] = int32(int(b/3) % k)
			}
		}
		p := labeltree.MustPattern(labels, parent)
		leaves := p.Leaves()
		if len(leaves) == 0 {
			return
		}
		u, v := leaves[int(i)%len(leaves)], int32(-1)
		if k := int(j) % (len(leaves) + 1); k > 0 && leaves[k-1] != u && p.Size() > 2 {
			v = leaves[k-1]
		}
		got := p.Without(u, v)
		if !samePattern(got, p.Subpattern(rest(p, u, v))) {
			t.Fatalf("Without(%d, %d) of %v differs from Subpattern", u, v, p)
		}
		want := got.Key()
		if k := p.KeyWithout(u, v); k != want {
			t.Fatalf("KeyWithout(%d, %d) of %v = %x, want %x", u, v, p, k, want)
		}
	})
}
