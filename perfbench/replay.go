package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/planner"
	"treelattice/internal/qcache"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// Replay bounds: the replay re-runs at most this many requests of the
// traced phase, in their original order, or stops after replayBudget.
const (
	replayMax    = 20000
	replayBudget = 2 * time.Second
)

// layers is the in-process replay's per-layer record.
type layers struct {
	parse, key, qget  samples
	estimate          samples
	augmentations     []float64
	depth             []float64
	probes            []float64
	probeNS           float64
	choose, enumerate samples
	candidates        []float64
	calibration       []float64
	indexBuild        float64 // ms, all documents
	xmlParse, mine    samples
	// reads are the replayed requests in replay order, and total[j] the
	// summed layer time of reads[j], so the handler span of the same
	// request can be split into replayed layers and a residual.
	reads []sample
	total []int64
}

// replayEstimates re-runs the traced estimate requests through the
// public layer functions, mirroring the handler: parse the twig, key it,
// look it up in a response cache of the server's size, and on a miss
// estimate with the default method. The cache is first filled with
// warm, the server's warm-up set. A separate cache-less recursive
// estimator over the snapshot loaded with lattice.ReadFrozen, behind a
// counting Store, records the decomposition work and the probe keys.
func replayEstimates(ctx context.Context, ref *core.Summary, snapshot string, req *requests, reads []sample, warm []twig) (*layers, error) {
	f, err := os.Open(snapshot)
	if err != nil {
		return nil, err
	}
	frozen, err := lattice.ReadFrozen(f, ref.Dict())
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("loading snapshot: %w", err)
	}
	counting := &countingStore{Store: frozen}
	traced := estimate.NewRecursive(counting, true)
	cache := qcache.New(4096)
	scope := qcache.Scope{}
	method := string(core.MethodRecursiveVoting)
	for _, t := range warm {
		if q, err := ref.ParseQuery(t.text); err == nil {
			res, err := ref.EstimateDegradable(ctx, q, core.MethodRecursiveVoting)
			if err != nil {
				return nil, err
			}
			cache.Put(scope, method, q, res.Estimate)
		}
	}
	l := &layers{}
	stop := time.Now().Add(replayBudget)
	for _, rd := range reads {
		if len(l.reads) >= replayMax || time.Now().After(stop) {
			break
		}
		l.reads = append(l.reads, rd)
		l.total = append(l.total, 0)
		spent := &l.total[len(l.total)-1]
		text := req.text(int(rd.idx))
		t0 := time.Now()
		q, err := ref.ParseQuery(text)
		l.parse = l.parse.add(t0, spent)
		if err != nil {
			continue // unknown label: the handler answers 0 without estimating
		}
		t0 = time.Now()
		_ = q.Key()
		l.key = l.key.add(t0, spent)
		t0 = time.Now()
		_, hit := cache.Get(scope, method, q)
		l.qget = l.qget.add(t0, spent)
		if hit {
			continue
		}
		t0 = time.Now()
		res, err := ref.EstimateDegradable(ctx, q, core.MethodRecursiveVoting)
		l.estimate = l.estimate.add(t0, spent)
		if err != nil {
			return nil, err
		}
		cache.Put(scope, method, q, res.Estimate)
		_, tr := traced.EstimateWithTrace(q)
		l.augmentations = append(l.augmentations, float64(tr.Augmentations))
		l.depth = append(l.depth, float64(tr.MaxDepth))
		l.probes = append(l.probes, float64(tr.LatticeHits+tr.LatticeMisses))
	}
	l.probeNS = counting.timeProbes(frozen)
	return l, nil
}

// countingStore records the keys of the first probeKeep CountKey probes,
// which timeProbes replays against the bare store.
type countingStore struct {
	estimate.Store
	keys []labeltree.Key
}

const probeKeep = 1 << 16

func (c *countingStore) CountKey(k labeltree.Key) (int64, bool) {
	if len(c.keys) < probeKeep {
		c.keys = append(c.keys, k)
	}
	return c.Store.CountKey(k)
}

// timeProbes returns the mean CountKey time over the recorded keys,
// timed in bulk so the clock's own cost does not enter each probe.
func (c *countingStore) timeProbes(s estimate.Store) float64 {
	if len(c.keys) == 0 {
		return 0
	}
	const rounds = 5
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range c.keys {
			s.CountKey(k)
		}
	}
	return float64(time.Since(t0)) / float64(rounds*len(c.keys))
}

// replayQueries re-runs the traced query requests: parse, plan with the
// fix-sized estimator (the handler's planning default), and count every
// document with the planned order under the server's node budget.
func replayQueries(ctx context.Context, ref *corpus.Corpus, req *requests, reads []sample, nodeBudget int64) (*layers, error) {
	sum := ref.Summary()
	est, err := sum.Estimator(core.MethodFixSized)
	if err != nil {
		return nil, err
	}
	trees := ref.Trees()
	idx := make([]*twigjoin.Index, len(trees))
	for i, t := range trees {
		idx[i] = ref.TwigIndexer().For(t)
	}
	l := &layers{}
	stop := time.Now().Add(replayBudget)
	for _, rd := range reads {
		if len(l.reads) >= replayMax || time.Now().After(stop) {
			break
		}
		l.reads = append(l.reads, rd)
		l.total = append(l.total, 0)
		spent := &l.total[len(l.total)-1]
		t0 := time.Now()
		q, err := sum.ParseTwigQuery(req.text(int(rd.idx)))
		l.parse = l.parse.add(t0, spent)
		if err != nil {
			continue
		}
		t0 = time.Now()
		plan := planner.Choose(q, est)
		l.choose = l.choose.add(t0, spent)
		budget := nodeBudget
		var cand int64
		t0 = time.Now()
		for _, x := range idx {
			st, err := twigjoin.CountContext(ctx, x, q, plan.Order, &budget)
			cand += st.Candidates
			if err != nil {
				break // budget exhausted: the handler answers degraded here
			}
		}
		l.enumerate = l.enumerate.add(t0, spent)
		l.candidates = append(l.candidates, float64(cand))
		if plan.PredictedCandidates > 0 {
			l.calibration = append(l.calibration, float64(cand)/plan.PredictedCandidates)
		}
	}
	return l, nil
}

// indexBuildMS times twigjoin.NewIndex over the documents.
func indexBuildMS(trees []*labeltree.Tree) float64 {
	t0 := time.Now()
	for _, t := range trees {
		twigjoin.NewIndex(t)
	}
	return float64(time.Since(t0)) / 1e6
}

// replayWrites re-runs the parse and mine stages of the accepted adds.
func replayWrites(ctx context.Context, docs []writeDoc, k int) (parse, mine samples, err error) {
	dict := labeltree.NewDict()
	for _, d := range docs {
		t0 := time.Now()
		tree, err := xmlparse.Parse(bytes.NewReader(d.xml), dict, xmlparse.Options{})
		parse = append(parse, int64(time.Since(t0)))
		if err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		if _, err := core.BuildForestContext(ctx, []*labeltree.Tree{tree}, core.BuildOptions{K: k}); err != nil {
			return nil, nil, err
		}
		mine = append(mine, int64(time.Since(t0)))
	}
	return parse, mine, nil
}

// snapshotPath is the read-only replica's snapshot file.
func snapshotPath(dir string) string { return filepath.Join(dir, "summary.tlat") }
