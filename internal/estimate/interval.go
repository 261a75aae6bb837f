package estimate

import (
	"math"

	"treelattice/internal/labeltree"
)

// Interval brackets a selectivity estimate by the spread of decomposition
// choices: Lo and Hi are the smallest and largest values obtainable by
// picking leaf pairs at every recursion level. This is the empirical
// error-spread the paper's future work gestures at — not a statistical
// bound on the true count, but a measure of how sensitive the estimate is
// to the decomposition choice: a wide interval means the conditional
// independence assumption is doing a lot of work.
type Interval struct {
	Lo, Hi float64
}

// Width is Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in [Lo, Hi] (with a small relative
// tolerance for float accumulation).
func (iv Interval) Contains(v float64) bool {
	eps := 1e-9 * math.Max(1, math.Abs(v))
	return v >= iv.Lo-eps && v <= iv.Hi+eps
}

// EstimateInterval computes the decomposition-choice interval of q against
// sum. Patterns answered directly by the lattice get point intervals;
// reconstruction of pruned in-range patterns is deterministic and also a
// point.
func EstimateInterval(sum Store, q labeltree.Pattern) Interval {
	memo := make(map[labeltree.Key]Interval)
	scalar := make(map[labeltree.Key]float64)
	var rec func(p labeltree.Pattern, key labeltree.Key) Interval
	rec = func(p labeltree.Pattern, key labeltree.Key) Interval {
		if iv, ok := memo[key]; ok {
			return iv
		}
		if c, ok := sum.CountKey(key); ok {
			iv := Interval{float64(c), float64(c)}
			memo[key] = iv
			return iv
		}
		if p.Size() <= sum.K() {
			// Absent (complete summary) or deterministically
			// reconstructed (pruned summary): a point either way.
			v := lookup(sum, p, scalar)
			iv := Interval{v, v}
			memo[key] = iv
			return iv
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range decompositions(p) {
			iv1 := rec(p.Without(d.u, -1), d.t1Key)
			iv2 := rec(p.Without(d.v, -1), d.t2Key)
			ivc := rec(p.Without(d.u, d.v), d.commonKey)
			plo := 0.0
			if ivc.Hi > 0 {
				plo = iv1.Lo * iv2.Lo / ivc.Hi
			}
			var phi float64
			switch {
			case ivc.Lo > 0:
				phi = iv1.Hi * iv2.Hi / ivc.Lo
			case iv1.Hi > 0 && iv2.Hi > 0 && ivc.Hi > 0:
				// The common part may or may not occur across
				// decomposition choices; the ratio is unbounded above.
				phi = math.Inf(1)
			default:
				phi = 0
			}
			if plo < lo {
				lo = plo
			}
			if phi > hi {
				hi = phi
			}
		}
		iv := Interval{lo, hi}
		memo[key] = iv
		return iv
	}
	return rec(q, q.Key())
}
