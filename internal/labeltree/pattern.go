package labeltree

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Pattern is a small rooted node-labeled tree: a twig query or a lattice
// entry. Nodes are numbered with every parent before its children
// (parent[i] < i, parent[0] == -1). Patterns are value types; the
// mutating-style operations return fresh patterns.
//
// Twig matching treats patterns as unordered trees: sibling order does not
// matter. Key (the canonical encoding) is therefore the identity used for
// equality and map storage.
type Pattern struct {
	labels []LabelID
	parent []int32
}

// Key is the canonical encoding of a pattern, usable as a map key. Two
// patterns have equal keys iff they are isomorphic as unordered rooted
// labeled trees. The contents are a compact byte encoding (see
// keyenc.go), not printable text, and are process-internal: keys are
// derived on demand and never serialized.
type Key string

// NewPattern builds a pattern from parallel label and parent slices.
// parent[0] must be -1 and parent[i] < i for i > 0. The slices are copied.
func NewPattern(labels []LabelID, parent []int32) (Pattern, error) {
	if len(labels) != len(parent) {
		return Pattern{}, fmt.Errorf("labeltree: labels/parent length mismatch %d != %d", len(labels), len(parent))
	}
	if len(labels) == 0 {
		return Pattern{}, fmt.Errorf("labeltree: empty pattern")
	}
	if parent[0] != -1 {
		return Pattern{}, fmt.Errorf("labeltree: parent[0] must be -1, got %d", parent[0])
	}
	for i := 1; i < len(parent); i++ {
		if parent[i] < 0 || parent[i] >= int32(i) {
			return Pattern{}, fmt.Errorf("labeltree: parent[%d]=%d violates parent-before-child numbering", i, parent[i])
		}
	}
	p := Pattern{labels: append([]LabelID(nil), labels...), parent: append([]int32(nil), parent...)}
	return p, nil
}

// MustPattern is NewPattern that panics on malformed input; intended for
// literals in tests and examples.
func MustPattern(labels []LabelID, parent []int32) Pattern {
	p, err := NewPattern(labels, parent)
	if err != nil {
		panic(err)
	}
	return p
}

// SingleNode returns the one-node pattern labeled label.
func SingleNode(label LabelID) Pattern {
	return Pattern{labels: []LabelID{label}, parent: []int32{-1}}
}

// Size reports the number of nodes.
func (p Pattern) Size() int { return len(p.labels) }

// IsZero reports whether p is the zero Pattern (no nodes).
func (p Pattern) IsZero() bool { return len(p.labels) == 0 }

// Label returns the label of node i.
func (p Pattern) Label(i int32) LabelID { return p.labels[i] }

// RootLabel returns the label of the root node.
func (p Pattern) RootLabel() LabelID { return p.labels[0] }

// Parent returns the parent of node i (-1 for the root).
func (p Pattern) Parent(i int32) int32 { return p.parent[i] }

// Children returns the children of node i in numbering order.
func (p Pattern) Children(i int32) []int32 {
	var out []int32
	for j := i + 1; int(j) < len(p.parent); j++ {
		if p.parent[j] == i {
			out = append(out, j)
		}
	}
	return out
}

// ChildCounts returns the number of children of every node.
func (p Pattern) ChildCounts() []int {
	counts := make([]int, len(p.labels))
	for i := 1; i < len(p.parent); i++ {
		counts[p.parent[i]]++
	}
	return counts
}

// Degree returns the degree of node i in the undirected sense (children
// plus one for the parent edge, if any).
func (p Pattern) Degree(i int32) int {
	d := p.ChildCounts()[i]
	if i != 0 {
		d++
	}
	return d
}

// Leaves returns the nodes of degree 1: ordinary leaves, plus the root if
// it has exactly one child. The paper treats a degree-1 root as a leaf for
// decomposition purposes (Section 3.2).
func (p Pattern) Leaves() []int32 {
	counts := p.ChildCounts()
	var out []int32
	for i := range counts {
		switch {
		case i == 0 && counts[i] == 1 && len(p.labels) > 1:
			out = append(out, int32(i))
		case i != 0 && counts[i] == 0:
			out = append(out, int32(i))
		}
	}
	return out
}

// IsPath reports whether the pattern is a simple path (every node has at
// most one child).
func (p Pattern) IsPath() bool {
	for _, c := range p.ChildCounts() {
		if c > 1 {
			return false
		}
	}
	return true
}

// PathLabels returns the root-to-leaf label sequence of a path pattern.
// It panics if the pattern is not a path.
func (p Pattern) PathLabels() []LabelID {
	if !p.IsPath() {
		panic("labeltree: PathLabels on a branching pattern")
	}
	out := make([]LabelID, 0, len(p.labels))
	i := int32(0)
	for {
		out = append(out, p.labels[i])
		cs := p.Children(i)
		if len(cs) == 0 {
			return out
		}
		i = cs[0]
	}
}

// PathPattern builds a path pattern from a root-to-leaf label sequence.
func PathPattern(labels ...LabelID) Pattern {
	if len(labels) == 0 {
		panic("labeltree: empty path")
	}
	parent := make([]int32, len(labels))
	parent[0] = -1
	for i := 1; i < len(labels); i++ {
		parent[i] = int32(i - 1)
	}
	return Pattern{labels: append([]LabelID(nil), labels...), parent: parent}
}

// AddChild returns a copy of p with a new node labeled label attached under
// node at. The new node gets the highest index.
func (p Pattern) AddChild(at int32, label LabelID) Pattern {
	q := Pattern{
		labels: append(append([]LabelID(nil), p.labels...), label),
		parent: append(append([]int32(nil), p.parent...), at),
	}
	return q
}

// RemoveLeaf returns a copy of p with degree-1 node i removed. Removing an
// ordinary leaf drops the node; removing a single-child root promotes the
// child to root. It panics if node i has degree > 1 or p has one node.
func (p Pattern) RemoveLeaf(i int32) Pattern { return p.Without(i, -1) }

// Without returns a copy of p with the degree-1 nodes u and v removed
// (v < 0 removes u only). It equals Subpattern of the remaining nodes:
// removing a single-child root promotes the child to root. Because the
// removed nodes are leaves or that root, the remaining nodes keep their
// relative order and the renumbering is a shift, so no set or sort is
// needed. It panics if a removed node has degree > 1, u == v, or no node
// would remain.
func (p Pattern) Without(u, v int32) Pattern {
	p.checkRemovable(u, v)
	n := int32(len(p.labels))
	m := int32(1)
	if v >= 0 {
		m = 2
	}
	// LabelID is an int32: one allocation backs both arrays.
	buf := make([]int32, 0, 2*(n-m))
	labels, parent := buf[:0:n-m], buf[n-m:n-m]
	for i := int32(0); i < n; i++ {
		if i == u || i == v {
			continue
		}
		labels = append(labels, p.labels[i])
		par := p.parent[i]
		if par < 0 || par == u || par == v {
			// The kept root, or the child of a removed root.
			parent = append(parent, -1)
			continue
		}
		np := par
		if u < par {
			np--
		}
		if v >= 0 && v < par {
			np--
		}
		parent = append(parent, np)
	}
	return Pattern{labels: labels, parent: parent}
}

// checkRemovable panics unless u (and v, when v >= 0) are distinct
// degree-1 nodes of p whose removal leaves at least one node.
func (p Pattern) checkRemovable(u, v int32) {
	n := int32(len(p.labels))
	if u < 0 || u >= n || v >= n || u == v {
		panic("labeltree: removed node out of range")
	}
	if n <= 1 || (v >= 0 && n <= 2) {
		panic("labeltree: removal leaves a trivial pattern")
	}
	var ku, kv int
	for j := int32(1); j < n; j++ {
		switch p.parent[j] {
		case u:
			ku++
		case v:
			kv++
		}
	}
	checkDegree1(u, ku)
	if v >= 0 {
		checkDegree1(v, kv)
	}
}

// checkDegree1 panics unless node i with the given child count has
// degree 1: a leaf, or a root with exactly one child.
func checkDegree1(i int32, kids int) {
	if i == 0 {
		if kids != 1 {
			panic("labeltree: removing a branching root")
		}
	} else if kids != 0 {
		panic("labeltree: removing an internal node")
	}
}

// Subpattern extracts the pattern induced by the given nodes, which must
// form a connected subtree of p. Nodes may be in any order; the result is
// renumbered parent-before-child.
func (p Pattern) Subpattern(nodes []int32) Pattern {
	// One buffer holds the ascending node list and the old→new index
	// remap (-1 outside the set).
	buf := make([]int32, len(nodes)+len(p.labels))
	ordered, remap := buf[:len(nodes)], buf[len(nodes):]
	copy(ordered, nodes)
	slices.Sort(ordered)
	for i := range remap {
		remap[i] = -1
	}
	for newIdx, old := range ordered {
		remap[old] = int32(newIdx)
	}
	labels := make([]LabelID, len(ordered))
	parent := make([]int32, len(ordered))
	rootSeen := false
	for newIdx, old := range ordered {
		labels[newIdx] = p.labels[old]
		par := p.parent[old]
		if par < 0 || remap[par] < 0 {
			if rootSeen {
				panic("labeltree: Subpattern nodes are not connected")
			}
			parent[newIdx] = -1
			rootSeen = true
			continue
		}
		parent[newIdx] = remap[par]
	}
	if !rootSeen {
		panic("labeltree: Subpattern has no root")
	}
	// Because original numbering is parent-before-child and we kept
	// ascending order, parent[i] < i holds in the result.
	return Pattern{labels: labels, parent: parent}
}

// Preorder returns the nodes of p in a depth-first preorder, visiting
// children in numbering order. Used by the fix-sized decomposition, which
// covers the query in preorder (Section 3.3).
func (p Pattern) Preorder() []int32 {
	children := make([][]int32, len(p.labels))
	for i := 1; i < len(p.parent); i++ {
		children[p.parent[i]] = append(children[p.parent[i]], int32(i))
	}
	out := make([]int32, 0, len(p.labels))
	stack := []int32{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		cs := children[n]
		for j := len(cs) - 1; j >= 0; j-- {
			stack = append(stack, cs[j])
		}
	}
	return out
}

// Key returns the canonical encoding of p as an unordered rooted labeled
// tree: a compact byte string (see keyenc.go for the format) in which
// every node's child encodings appear sorted, making sibling order
// irrelevant. Two patterns have equal keys iff they are isomorphic.
func (p Pattern) Key() Key {
	return p.KeyWithout(-1, -1)
}

// KeyWithout returns the canonical key of p with the degree-1 nodes u and
// v removed (v < 0 removes u only; u < 0 removes nothing): it equals
// p.Without(u, v).Key() without building the smaller pattern. When the
// root is removed, the result is the encoding of its only child.
func (p Pattern) KeyWithout(u, v int32) Key {
	if u >= 0 || v >= 0 {
		p.checkRemovable(u, v)
	}
	ks := keyScratchPool.Get().(*keyScratch)
	k := Key(ks.encodeWithout(p, u, v))
	keyScratchPool.Put(ks)
	return k
}

// encodeLabel renders a label ID unambiguously inside String's child
// ordering keys (display only; canonical Keys use the byte encoder).
func encodeLabel(l LabelID) string { return fmt.Sprintf("%d.", l) }

// Canonicalize returns an isomorphic copy of p renumbered into canonical
// preorder: children are visited in the order of their canonical
// encodings, so two isomorphic patterns canonicalize to structurally
// identical values. Order-sensitive algorithms (like the fix-sized
// preorder cover) canonicalize first to become isomorphism-invariant.
func (p Pattern) Canonicalize() Pattern {
	n := len(p.labels)
	ks := keyScratchPool.Get().(*keyScratch)
	ks.encodeWithout(p, -1, -1) // leaves every node's child list in canonical order
	labels := make([]LabelID, 0, n)
	parent := make([]int32, 0, n)
	type frame struct{ old, newParent int32 }
	stack := make([]frame, 1, n)
	stack[0] = frame{0, -1}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := int32(len(labels))
		labels = append(labels, p.labels[f.old])
		parent = append(parent, f.newParent)
		kids := ks.childIdx[ks.childPos[f.old]:ks.childPos[f.old+1]]
		for j := len(kids) - 1; j >= 0; j-- {
			stack = append(stack, frame{kids[j], idx})
		}
	}
	keyScratchPool.Put(ks)
	return Pattern{labels: labels, parent: parent}
}

// Equal reports whether p and q are isomorphic as unordered trees.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.labels) != len(q.labels) {
		return false
	}
	ks1 := keyScratchPool.Get().(*keyScratch)
	ks2 := keyScratchPool.Get().(*keyScratch)
	eq := bytes.Equal(ks1.encodeWithout(p, -1, -1), ks2.encodeWithout(q, -1, -1))
	keyScratchPool.Put(ks1)
	keyScratchPool.Put(ks2)
	return eq
}

// Clone returns a deep copy of p.
func (p Pattern) Clone() Pattern {
	return Pattern{
		labels: append([]LabelID(nil), p.labels...),
		parent: append([]int32(nil), p.parent...),
	}
}

// Relabel returns a copy of p with node i relabeled to label.
func (p Pattern) Relabel(i int32, label LabelID) Pattern {
	q := p.Clone()
	q.labels[i] = label
	return q
}

// String renders p in the twig syntax using dict for label names, e.g.
// "a(b,c(d))". Children appear in canonical (sorted-encoding) order so the
// output is deterministic across isomorphic patterns.
func (p Pattern) String(dict *Dict) string {
	children := make([][]int32, len(p.labels))
	for i := 1; i < len(p.parent); i++ {
		children[p.parent[i]] = append(children[p.parent[i]], int32(i))
	}
	type rendered struct{ key, text string }
	var enc func(i int32) rendered
	enc = func(i int32) rendered {
		name := dict.Name(p.labels[i])
		cs := children[i]
		if len(cs) == 0 {
			return rendered{encodeLabel(p.labels[i]), name}
		}
		parts := make([]rendered, len(cs))
		for j, c := range cs {
			parts[j] = enc(c)
		}
		sort.Slice(parts, func(a, b int) bool { return parts[a].key < parts[b].key })
		keys := make([]string, len(parts))
		texts := make([]string, len(parts))
		for j, r := range parts {
			keys[j] = r.key
			texts[j] = r.text
		}
		return rendered{
			encodeLabel(p.labels[i]) + "(" + strings.Join(keys, "") + ")",
			name + "(" + strings.Join(texts, ",") + ")",
		}
	}
	return enc(0).text
}
