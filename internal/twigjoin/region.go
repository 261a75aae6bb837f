// Package twigjoin executes twig queries against data trees: where
// internal/match only counts, this engine produces the actual match
// tuples — the output whose cardinality TreeLattice estimates. It is the
// substrate the paper's motivation presumes ("determining an optimal
// query plan, based on said estimates"): internal/planner chooses
// evaluation orders over this engine using TreeLattice estimates.
//
// The engine supports both structural axes of twig queries:
//
//   - Child ("/"): the paper's Definition 1 semantics; an edge (u, u')
//     must map to a parent-child edge.
//   - Descendant ("//"): the edge may map to any ancestor-descendant
//     pair, the usual XPath semantics.
//
// Matching is 1-1 (injective) in both cases, matching Definition 1.
//
// Data access goes through an Index: a region (start, end, level)
// encoding from one DFS plus two label-addressed tables in CSR form
// (compressed sparse row: one offsets array over one flat array). The
// label streams hold, per label, every node carrying it in document
// order with the preorder starts alongside; the child table holds, per
// node, its children grouped by label and in document order within a
// label. Both structural axes then become short binary searches that
// return shared subslices: descendant steps probe the label's stream for
// starts in (start, end), and child steps search the parent's own few
// children for the label's contiguous run. Neither probe walks the
// subtree or allocates.
package twigjoin

import (
	"treelattice/internal/labeltree"
)

// Index is the access structure the join algorithms run on. Build one per
// document with NewIndex; it is immutable and safe for concurrent use.
type Index struct {
	tree  *labeltree.Tree
	start []int32 // preorder rank
	end   []int32 // start of last descendant + 1 (exclusive bound on subtree)
	level []int32

	// Label streams, addressed by LabelID: the nodes carrying label l are
	// nodes[labOff[l]:labOff[l+1]] in document order, and starts holds
	// their preorder starts so range probes binary-search a dense array
	// instead of chasing node ids back into the start table. labOff
	// covers only labels up to this document's largest; the dictionary
	// is shared across documents, so larger ids are absent, not errors.
	labOff []int32
	nodes  []int32
	starts []int32

	// Child table, addressed by node: the children of v are
	// kids[kidOff[v]:kidOff[v+1]], grouped by ascending label and in
	// document order within a label, with kidLab their aligned labels.
	kidOff []int32
	kids   []int32
	kidLab []labeltree.LabelID
}

// NewIndex region-encodes t and builds the label streams and the child
// table, in O(n) with no sort.
func NewIndex(t *labeltree.Tree) *Index {
	n := t.Size()
	idx := &Index{
		tree:  t,
		start: make([]int32, n),
		end:   make([]int32, n),
		level: make([]int32, n),
	}
	// Iterative DFS assigning preorder starts and subtree ends; pre lists
	// the nodes in document order.
	type frame struct {
		node  int32
		child int // next child index to visit
	}
	pre := make([]int32, 1, n)
	maxLabel := t.Label(0)
	stack := []frame{{node: 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Children(f.node)
		if f.child < len(kids) {
			c := kids[f.child]
			f.child++
			idx.start[c] = int32(len(pre))
			idx.level[c] = idx.level[f.node] + 1
			pre = append(pre, c)
			maxLabel = max(maxLabel, t.Label(c))
			stack = append(stack, frame{node: c})
			continue
		}
		idx.end[f.node] = int32(len(pre))
		stack = stack[:len(stack)-1]
	}

	// Label streams: a counting sort of the preorder by label keeps
	// document order within each label.
	idx.labOff = make([]int32, int(maxLabel)+2)
	for _, v := range pre {
		idx.labOff[t.Label(v)+1]++
	}
	for l := 1; l < len(idx.labOff); l++ {
		idx.labOff[l] += idx.labOff[l-1]
	}
	next := make([]int32, int(maxLabel)+1)
	copy(next, idx.labOff)
	idx.nodes = make([]int32, n)
	idx.starts = make([]int32, n)
	for _, v := range pre {
		l := t.Label(v)
		idx.nodes[next[l]] = v
		idx.starts[next[l]] = idx.start[v]
		next[l]++
	}

	// Child table: walking the streams in ascending label order and
	// appending each node to its parent's bucket groups every bucket by
	// label, in document order within a label. pre is reused as the
	// per-node fill cursor.
	idx.kidOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		idx.kidOff[v+1] = idx.kidOff[v] + int32(len(t.Children(int32(v))))
	}
	at := pre[:n]
	copy(at, idx.kidOff[:n])
	idx.kids = make([]int32, n-1)
	idx.kidLab = make([]labeltree.LabelID, n-1)
	for _, v := range idx.nodes {
		if v == 0 {
			continue
		}
		p := t.Parent(v)
		idx.kids[at[p]] = v
		idx.kidLab[at[p]] = t.Label(v)
		at[p]++
	}
	return idx
}

// Tree returns the indexed document.
func (x *Index) Tree() *labeltree.Tree { return x.tree }

// Start returns the preorder rank of node i.
func (x *Index) Start(i int32) int32 { return x.start[i] }

// End returns the exclusive preorder bound of node i's subtree.
func (x *Index) End(i int32) int32 { return x.end[i] }

// Level returns the depth of node i (root = 0).
func (x *Index) Level(i int32) int32 { return x.level[i] }

// Stream returns all nodes with the given label in document order. The
// slice is shared and must not be modified.
func (x *Index) Stream(label labeltree.LabelID) []int32 {
	lo, hi := x.streamBounds(label)
	return x.nodes[lo:hi]
}

// streamBounds returns label's run [lo, hi) in nodes and starts. The run
// is empty when the label is absent from the document, including ids
// past its largest label.
func (x *Index) streamBounds(label labeltree.LabelID) (lo, hi int32) {
	if uint(label) >= uint(len(x.labOff)-1) {
		return 0, 0
	}
	return x.labOff[label], x.labOff[label+1]
}

// IsAncestor reports whether a is a proper ancestor of d.
func (x *Index) IsAncestor(a, d int32) bool {
	return x.start[a] < x.start[d] && x.start[d] < x.end[a]
}

// searchAbove returns the first position in the ascending run a holding
// a value > v. Manual binary search: the aligned starts and label arrays
// make this a probe over a dense int32 run with no closure or tree
// indirection.
func searchAbove(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchAtOrAbove returns the first position in the ascending run a
// holding a value >= v.
func searchAtOrAbove(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopAtOrAbove returns the first position at or after lo in starts
// holding a value >= v. It doubles its stride forward from lo before
// binary-searching the last stride, so a short run costs O(log run)
// instead of O(log len(starts)).
func gallopAtOrAbove(starts []int32, lo int, v int32) int {
	hi, step := lo, 1
	for hi < len(starts) && starts[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(starts))
	return lo + searchAtOrAbove(starts[lo:hi], v)
}

// DescendantsByLabel returns the descendants of node i carrying label, in
// document order, as a shared subslice of the label's stream: a range
// probe for starts in (start(i), end(i)), binary-searching the lower
// bound and galloping to the upper one (subtree windows are usually
// short). The result must not be modified; iteration allocates nothing.
func (x *Index) DescendantsByLabel(i int32, label labeltree.LabelID) []int32 {
	o, e := x.streamBounds(label)
	starts := x.starts[o:e]
	lo := searchAbove(starts, x.start[i])
	hi := gallopAtOrAbove(starts, lo, x.end[i])
	return x.nodes[int(o)+lo : int(o)+hi]
}

// ChildrenByLabel returns the children of node i carrying label, in
// document order, as a shared subslice of the child table: i's children
// are grouped by label, so the probe binary-searches i's own bucket for
// the label's contiguous run. The result must not be modified; iteration
// allocates nothing.
func (x *Index) ChildrenByLabel(i int32, label labeltree.LabelID) []int32 {
	o, e := int(x.kidOff[i]), int(x.kidOff[i+1])
	labs := x.kidLab[o:e]
	lo := searchAtOrAbove(labs, label)
	hi := searchAbove(labs[lo:], label) + lo
	return x.kids[o+lo : o+hi]
}
