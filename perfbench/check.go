package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
	"treelattice/internal/match"
	"treelattice/internal/twigjoin"
)

// refEstimate is the in-process answer the handler must have served for
// text: Summary.EstimateDegradable with the default method, or 0 for a
// twig naming a label the corpus has never seen.
func refEstimate(ctx context.Context, ref *core.Summary, text string) (float64, error) {
	q, err := ref.ParseQuery(text)
	if errors.Is(err, core.ErrUnknownLabel) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	res, err := ref.EstimateDegradable(ctx, q, core.MethodRecursiveVoting)
	if err != nil {
		return 0, err
	}
	if res.Degraded {
		return 0, fmt.Errorf("reference estimate of %q degraded", text)
	}
	return res.Estimate, nil
}

// checkEstimates counts the served estimates that are not bit-identical
// to ref's in-process answer (each distinct twig is estimated once).
func checkEstimates(ctx context.Context, ref *core.Summary, req *requests, reads []sample) (int, error) {
	want := make(map[int32]float64)
	bad := 0
	for _, s := range reads {
		if !s.ok {
			continue
		}
		v, seen := want[s.idx]
		if !seen {
			var err error
			if v, err = refEstimate(ctx, ref, req.text(int(s.idx))); err != nil {
				return 0, err
			}
			want[s.idx] = v
		}
		if s.ans.Degraded || math.Float64bits(s.ans.Estimate) != math.Float64bits(v) {
			bad++
		}
	}
	return bad, nil
}

// checkCounts counts the non-degraded /v1/query answers whose count
// differs from twigjoin.Count summed over the generated documents.
func checkCounts(docs []*labeltree.Tree, queries []twig, reads []sample) int {
	idx := make([]*twigjoin.Index, len(docs))
	for i, t := range docs {
		idx[i] = twigjoin.NewIndex(t)
	}
	want := make(map[int32]int64)
	bad := 0
	for _, s := range reads {
		if !s.ok || s.ans.Degraded {
			continue
		}
		v, seen := want[s.idx]
		if !seen {
			for _, x := range idx {
				v += twigjoin.Count(x, queries[s.idx].query)
			}
			want[s.idx] = v
		}
		if s.ans.Count != v {
			bad++
		}
	}
	return bad
}

// checkFinite counts ingest-mixed reads whose estimate is not a finite
// non-negative number. Their epoch is not known to the client, so the
// bit-identity check runs once the writer has stopped (checkIngest).
func checkFinite(reads []sample) int {
	bad := 0
	for _, s := range reads {
		if s.ok && (math.IsNaN(s.ans.Estimate) || math.IsInf(s.ans.Estimate, 0) || s.ans.Estimate < 0) {
			bad++
		}
	}
	return bad
}

// checkIngest compares served estimates for sample, after the writer
// stopped, with a summary built from scratch over every document the
// server holds; it also checks the server holds exactly wantDocs
// documents. It returns requests sent and mismatches.
func checkIngest(ctx context.Context, e *env, cl *client, k, wantDocs int, sample []twig) (int, int, error) {
	trees := e.c.Trees()
	bad := 0
	if len(trees) != wantDocs {
		bad++
	}
	scratch, err := core.BuildForestContext(ctx, trees, core.BuildOptions{K: k})
	if err != nil {
		return 0, 0, fmt.Errorf("from-scratch build: %w", err)
	}
	for _, t := range sample {
		r := cl.get(t.path, -1)
		want, err := refEstimate(ctx, scratch, t.text)
		if err != nil {
			return 0, 0, err
		}
		if r.err != nil || r.status != http.StatusOK || math.Float64bits(r.ans.Estimate) != math.Float64bits(want) {
			bad++
		}
	}
	return len(sample), bad, nil
}

// qerror is the q-error of an estimate against a true count, both
// floored at one match so zero-selectivity twigs score 1 when estimated
// at zero.
func qerror(est float64, exact int64) float64 {
	e, t := math.Max(est, 1), math.Max(float64(exact), 1)
	return math.Max(e/t, t/e)
}

// accuracy serves the accuracy subsample and returns its q-errors, the
// requests sent and the failed ones. extra are documents added after the
// subsample's exact counts were taken (ingest-mixed).
func accuracy(cl *client, acc []accQuery, extra []*labeltree.Tree) (qerrs []float64, sent, failed int) {
	counters := make([]*match.Counter, len(extra))
	for i, t := range extra {
		counters[i] = match.NewCounter(t)
	}
	for _, a := range acc {
		sent++
		r := cl.get(a.path, -1)
		if r.err != nil || r.status != http.StatusOK {
			failed++
			continue
		}
		qerrs = append(qerrs, qerror(r.ans.Estimate, a.exact+exactCount(counters, a.pattern)))
	}
	return qerrs, sent, failed
}
