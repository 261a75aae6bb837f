// Package estimate implements the paper's probabilistic decomposition
// framework (Section 3): estimating the selectivity of a twig query from
// the counts of its subtrees stored in a lattice summary.
//
// The foundation is Theorem 1: if T1 and T2 share a common part T and each
// extends T by one distinct edge, then under the assumption that the two
// extensions grow conditionally independently,
//
//	ŝ(T1 ∪ T2) = s(T1) · s(T2) / s(T).
//
// Lemma 1 generalizes this to any pair of subtrees T1, T2 with
// |T1 ∩ T2| = |T1| + |T2| − 1. Two concrete estimators apply it:
//
//   - Recursive decomposition (Section 3.2, Figure 4): remove two degree-1
//     nodes of the query to obtain T1, T2 one node smaller and their
//     common part two nodes smaller, and recurse until patterns fit in the
//     lattice. An optional voting extension averages the estimates of all
//     admissible leaf pairs at each level.
//   - Fix-sized decomposition (Section 3.3, Figure 5, Lemmas 2–3): cover
//     the query in preorder with n−K+1 K-subtrees whose consecutive
//     overlaps are (K−1)-subtrees, and take Π s(Ti) / Π s(overlap_i).
package estimate

import (
	"context"
	"slices"
	"sort"
	"strings"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// Estimator is a selectivity estimator for twig queries.
type Estimator interface {
	// Estimate returns the estimated number of matches of q. Estimates
	// are non-negative and may be fractional.
	Estimate(q labeltree.Pattern) float64
	// Name identifies the estimator in experiment output.
	Name() string
}

// ContextEstimator is implemented by estimators whose evaluation polls the
// context at bounded intervals, so per-request deadlines interrupt an
// expensive decomposition instead of letting it run to completion. Both
// built-in estimators implement it.
type ContextEstimator interface {
	Estimator
	// EstimateContext is Estimate with cooperative cancellation: it
	// returns ctx.Err() once ctx is done, checked at bounded intervals
	// during the decomposition recursion.
	EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error)
}

// Store is the pattern-count source estimators read from. *lattice.Summary
// is the canonical implementation; the online tuner overlays corrections
// on top of one.
type Store interface {
	// Count returns the stored count for p and whether p is present.
	Count(p labeltree.Pattern) (int64, bool)
	// CountKey is Count for a precomputed canonical key. The
	// decomposition engine keys every pattern exactly once (the key is
	// also its memo identity), so stores must answer by key without
	// re-encoding.
	CountKey(key labeltree.Key) (int64, bool)
	// K is the size up to which the store is authoritative: a missing
	// pattern of size ≤ K either does not occur (complete store) or is
	// derivable (pruned store).
	K() int
	// Pruned reports whether missing in-range patterns may be derivable
	// rather than absent.
	Pruned() bool
}

var _ Store = (*lattice.Summary)(nil)
var _ Store = (*lattice.Compressed)(nil)

// Augment applies Theorem 1 / Lemma 1: the expected count of the union of
// two subtrees with counts s1 and s2 whose common part has count common.
// A zero common part makes the union impossible and yields 0.
func Augment(s1, s2, common float64) float64 {
	if common <= 0 {
		return 0
	}
	return s1 * s2 / common
}

// Trace records how an estimate was produced, supporting the paper's
// future-work direction of attaching confidence information to estimates:
// deeper recursion and more misses mean more compounded independence
// assumptions.
type Trace struct {
	// LatticeHits counts lookups answered directly from the summary.
	LatticeHits int
	// LatticeMisses counts patterns that had to be decomposed.
	LatticeMisses int
	// Reconstructions counts in-range patterns rebuilt because the
	// summary was pruned.
	Reconstructions int
	// Augmentations counts applications of the Theorem 1 formula.
	Augmentations int
	// MaxDepth is the deepest decomposition recursion reached — the
	// number of independence assumptions compounded on the worst path.
	MaxDepth int
	// CacheHits counts sub-estimates answered from the shared SubCache
	// instead of being decomposed.
	CacheHits int
}

// VotingScheme selects how the voting extension aggregates the estimates
// of the admissible leaf pairs at each level. The paper averages and
// leaves "different voting schemes ... accounting for higher order
// statistical moments" as an open question; Median and TrimmedMean are
// robust alternatives that down-weight outlier decompositions.
type VotingScheme uint8

// The implemented voting schemes.
const (
	// Mean averages all pair estimates (the paper's scheme).
	Mean VotingScheme = iota
	// Median takes the middle pair estimate.
	Median
	// TrimmedMean drops the lowest and highest quartile of pair
	// estimates before averaging (falls back to Mean below 4 pairs).
	TrimmedMean
)

func (v VotingScheme) String() string {
	switch v {
	case Median:
		return "median"
	case TrimmedMean:
		return "trimmed-mean"
	default:
		return "mean"
	}
}

// Recursive is the recursive decomposition estimator of Section 3.2, with
// the optional voting extension. The zero value is not ready to use; set
// Sum or use NewRecursive.
type Recursive struct {
	Sum Store
	// Voting aggregates the estimates of all admissible leaf pairs at
	// each recursion level instead of using one canonical pair.
	Voting bool
	// Scheme selects the voting aggregate (default Mean, the paper's).
	Scheme VotingScheme
	// MaxVotingPairs caps the number of leaf pairs considered per level
	// when voting (0 = all pairs). The paper's voting scheme considers
	// all decompositions; the cap bounds worst-case latency.
	MaxVotingPairs int
	// Cache, when non-nil, shares decomposed sub-estimates across
	// queries (and goroutines). It must be dedicated to estimators with
	// this estimator's store and configuration; see SubCache.
	Cache *SubCache
}

// NewRecursive returns a recursive decomposition estimator over sum.
func NewRecursive(sum Store, voting bool) *Recursive {
	return &Recursive{Sum: sum, Voting: voting}
}

// Name implements Estimator.
func (r *Recursive) Name() string {
	if r.Voting {
		return "recursive+voting"
	}
	return "recursive"
}

// Estimate implements Estimator.
func (r *Recursive) Estimate(q labeltree.Pattern) float64 {
	e := engine{sum: r.Sum, voting: r.Voting, scheme: r.Scheme, maxPairs: r.MaxVotingPairs, memo: make(map[labeltree.Key]float64), cache: r.Cache}
	return e.estimate(q, 0)
}

// EstimateContext implements ContextEstimator: the decomposition recursion
// polls ctx every ctxOpsInterval memo operations and unwinds with ctx.Err()
// once the context is done.
func (r *Recursive) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	e := engine{sum: r.Sum, voting: r.Voting, scheme: r.Scheme, maxPairs: r.MaxVotingPairs, memo: make(map[labeltree.Key]float64), cache: r.Cache, ctx: ctx}
	est := e.estimate(q, 0)
	if e.ctxErr != nil {
		return 0, e.ctxErr
	}
	return est, nil
}

// EstimateWithTrace is Estimate plus a record of the work performed.
func (r *Recursive) EstimateWithTrace(q labeltree.Pattern) (float64, Trace) {
	e := engine{sum: r.Sum, voting: r.Voting, scheme: r.Scheme, maxPairs: r.MaxVotingPairs, memo: make(map[labeltree.Key]float64), cache: r.Cache, tr: &Trace{}}
	est := e.estimate(q, 0)
	return est, *e.tr
}

// ctxOpsInterval is how many estimateKeyed entries pass between context
// polls. Each entry does map work and possibly a decomposition enumeration,
// so 64 entries bound the post-cancellation overrun to well under a
// millisecond on realistic queries.
const ctxOpsInterval = 64

// engine is the shared decomposition evaluator: the recursive estimator
// itself, the fallback used for derivable patterns missing from pruned
// lattices, and the subroutine of the pruning algorithm.
type engine struct {
	sum      Store
	voting   bool
	scheme   VotingScheme
	maxPairs int
	memo     map[labeltree.Key]float64
	// cache, when non-nil, shares decomposed sub-estimates across engine
	// runs. The memo stays authoritative within a run; the cache is
	// consulted on memo misses and fed on decompositions, never on
	// cancelled (partially evaluated) results.
	cache *SubCache
	tr    *Trace

	// ctx, when non-nil, is polled every ctxOpsInterval estimateKeyed
	// entries; on cancellation ctxErr latches and the recursion unwinds
	// immediately, returning 0 at every level.
	ctx    context.Context
	ops    int
	ctxErr error
}

func (e *engine) estimate(q labeltree.Pattern, depth int) float64 {
	return e.estimateKeyed(subTwig{from: q, u: -1, v: -1}, q.Key(), depth)
}

// subTwig is a twig carried by reference: the pattern it was cut from and
// the degree-1 nodes removed from it (-1 for none). The decomposition
// enumerator keys every sub-twig with KeyWithout, so a sub-twig answered
// by the memo, the store or the SubCache — most of them — never becomes a
// pattern; pattern builds it only when it must itself be decomposed.
type subTwig struct {
	from labeltree.Pattern
	u, v int32
}

func (t subTwig) size() int {
	n := t.from.Size()
	if t.u >= 0 {
		n--
	}
	if t.v >= 0 {
		n--
	}
	return n
}

func (t subTwig) pattern() labeltree.Pattern {
	if t.u < 0 {
		return t.from
	}
	return t.from.Without(t.u, t.v)
}

// estimateKeyed estimates sub-twig t, whose canonical key the caller
// already holds (the decomposition enumerator keys every sub-twig for its
// signature, so recursion never re-encodes one).
func (e *engine) estimateKeyed(t subTwig, key labeltree.Key, depth int) float64 {
	if e.ctx != nil {
		if e.ctxErr != nil {
			return 0
		}
		e.ops++
		// ops%interval == 1 so the very first entry polls: an
		// already-expired budget fails fast before any work.
		if e.ops%ctxOpsInterval == 1 {
			if err := e.ctx.Err(); err != nil {
				e.ctxErr = err
				return 0
			}
		}
	}
	if e.tr != nil && depth > e.tr.MaxDepth {
		e.tr.MaxDepth = depth
	}
	if v, ok := e.memo[key]; ok {
		return v
	}
	if c, ok := e.sum.CountKey(key); ok {
		if e.tr != nil {
			e.tr.LatticeHits++
		}
		e.memo[key] = float64(c)
		return float64(c)
	}
	if e.tr != nil {
		e.tr.LatticeMisses++
	}
	// Missing from the lattice. Sizes 1–2 are never pruned, so a missing
	// small pattern does not occur in the data at all. The same holds for
	// any in-range size when the lattice is complete.
	size := t.size()
	if size <= 2 || (size <= e.sum.K() && !e.sum.Pruned()) {
		e.memo[key] = 0
		return 0
	}
	// The shared cache sits below the memo and above decomposition: its
	// values were produced by this same deterministic evaluation (for
	// this store and configuration), so a hit is bit-identical to
	// recomputing.
	if v, ok := e.cache.get(key); ok {
		if e.tr != nil {
			e.tr.CacheHits++
		}
		e.memo[key] = v
		return v
	}
	voting := e.voting
	if size <= e.sum.K() {
		// In range but pruned as derivable: reconstruct with the same
		// canonical single-pair decomposition the pruning criterion
		// (Definition 2) was evaluated with, so pruned and full summaries
		// agree under every estimator. The reconstruction only touches
		// other in-range patterns, so the shared memo stays consistent.
		voting = false
		if e.tr != nil {
			e.tr.Reconstructions++
		}
	}
	q := t.pattern()
	ds := decompositions(q)
	if !voting {
		ds = ds[:1] // canonically smallest decomposition
	} else if e.maxPairs > 0 && len(ds) > e.maxPairs {
		ds = ds[:e.maxPairs]
	}
	saved := e.voting
	e.voting = voting
	votes := make([]float64, len(ds))
	for i, d := range ds {
		votes[i] = Augment(
			e.estimateKeyed(subTwig{from: q, u: d.u, v: -1}, d.t1Key, depth+1),
			e.estimateKeyed(subTwig{from: q, u: d.v, v: -1}, d.t2Key, depth+1),
			e.estimateKeyed(subTwig{from: q, u: d.u, v: d.v}, d.commonKey, depth+1),
		)
		if e.tr != nil {
			e.tr.Augmentations++
		}
	}
	e.voting = saved
	est := aggregate(votes, e.scheme)
	e.memo[key] = est
	// A cancelled recursion unwinds with zero placeholders; only fully
	// evaluated results may enter the shared cache.
	if e.ctxErr == nil {
		e.cache.put(key, est)
	}
	return est
}

// aggregate combines the per-pair vote estimates under the scheme.
func aggregate(votes []float64, scheme VotingScheme) float64 {
	if len(votes) == 1 {
		return votes[0]
	}
	switch scheme {
	case Median:
		s := append([]float64(nil), votes...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return s[mid]
		}
		return (s[mid-1] + s[mid]) / 2
	case TrimmedMean:
		if len(votes) < 4 {
			break
		}
		s := append([]float64(nil), votes...)
		sort.Float64s(s)
		cut := len(s) / 4
		s = s[cut : len(s)-cut]
		var sum float64
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s))
	}
	var sum float64
	for _, v := range votes {
		sum += v
	}
	return sum / float64(len(votes))
}

// decomposition is one leaf-pair removal of a query q, carried by key:
// T1 is q minus leaf u, T2 is q minus leaf v, and the common part is q
// minus both. Recursion and memoization work on the keys; a sub-twig's
// pattern is built from q and the removed leaves only when needed.
type decomposition struct {
	u, v                    int32
	t1Key, t2Key, commonKey labeltree.Key
}

// sig is the decomposition's canonical signature.
func (d *decomposition) sig() decompSig {
	lo, hi := d.t1Key, d.t2Key
	if hi < lo {
		lo, hi = hi, lo
	}
	return decompSig{lo: lo, hi: hi, common: d.commonKey}
}

// decompSig orders decompositions canonically: the unordered {T1, T2} key
// pair (lo ≤ hi) then the common part's key, compared field-wise. Two
// decompositions with equal signatures have the same {T1, T2} key pair
// and common key; Augment is symmetric in T1 and T2, so their order
// cannot change a vote.
type decompSig struct {
	lo, hi, common labeltree.Key
}

// cmp is a three-way comparison of signatures.
func (a decompSig) cmp(b decompSig) int {
	if c := strings.Compare(string(a.lo), string(b.lo)); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.hi), string(b.hi)); c != 0 {
		return c
	}
	return strings.Compare(string(a.common), string(b.common))
}

// decompositions enumerates every admissible leaf-pair decomposition of q,
// ordered by a canonical signature. The order — and in particular the
// first element, which the non-voting estimator uses — is invariant under
// isomorphic renumbering of q's nodes. That invariance matters: δ-derivable
// pruning verifies a pattern against the deterministic decomposition, and
// query-time reconstruction encounters the same pattern under a different
// numbering; both must pick the same decomposition.
//
// Only keys are computed, and no sub-pattern is built: each single-leaf
// removal is keyed once per leaf (T1 depends only on u and T2 only on v)
// and each pair removal once per pair, by KeyWithout.
func decompositions(q labeltree.Pattern) []decomposition {
	leaves := q.Leaves()
	single := make([]labeltree.Key, len(leaves))
	for i, l := range leaves {
		single[i] = q.KeyWithout(l, -1)
	}
	out := make([]decomposition, 0, len(leaves)*(len(leaves)-1)/2)
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			out = append(out, decomposition{
				u: leaves[i], v: leaves[j],
				t1Key: single[i], t2Key: single[j],
				commonKey: q.KeyWithout(leaves[i], leaves[j]),
			})
		}
	}
	slices.SortFunc(out, func(a, b decomposition) int { return a.sig().cmp(b.sig()) })
	return out
}

// lookup resolves a pattern count against the lattice, falling back to
// recursive decomposition when the lattice is pruned (Lemma 5: δ-derivable
// patterns can be removed without changing estimates because they are
// reconstructed on demand).
func lookup(sum Store, q labeltree.Pattern, memo map[labeltree.Key]float64) float64 {
	e := engine{sum: sum, memo: memo}
	return e.estimate(q, 0)
}
