package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
)

// ErrNoShards reports a scatter-gather estimate for which no shard
// answered its responsiveness probe: there is nothing to combine, not
// even a degraded answer.
var ErrNoShards = errors.New("fleet: no shards answered")

// Shard is one backend of a scatter-gather tenant: a shard summary plus
// an optional responsiveness probe. A nil Probe means the shard is local
// memory and always answers; a non-nil Probe is consulted per estimate
// with the shard deadline, and a shard whose probe fails or times out is
// excluded from that estimate (the answer degrades to the responders).
type Shard struct {
	Name    string
	Summary *core.Summary
	Probe   func(ctx context.Context) error
}

// Gather is the scatter-gather front end over a tenant's shards. An
// estimate fans out to the responsive shards and combines their counts
// through core.FromShards — the same additive algebra forest estimation
// uses across documents — so a full gather is bit-identical to a single
// summary over the union corpus, and a partial gather is exactly the
// answer the responding subset's corpus would give.
//
// Combined summaries are cached per responder set (a bitmask, hence
// MaxShards = 64), so the steady state — every shard healthy — reuses
// one combined summary and its sub-estimate caches across requests.
type Gather struct {
	shards []Shard

	mu       sync.Mutex
	source   core.TreeSource
	combined map[uint64]*core.Summary
}

// NewGather assembles a scatter-gather front end over shards. All shard
// summaries must share one dictionary and K (checked on first
// combination).
func NewGather(shards []Shard) (*Gather, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: gather needs at least one shard")
	}
	if len(shards) > MaxShards {
		return nil, fmt.Errorf("fleet: %d shards exceeds MaxShards=%d", len(shards), MaxShards)
	}
	return &Gather{shards: shards, combined: make(map[uint64]*core.Summary, 1)}, nil
}

// Shards reports the shard count.
func (g *Gather) Shards() int { return len(g.shards) }

// BindSource binds the union corpus's documents to every combined
// summary the gather builds, enabling document-needing estimator methods
// (markov, treesketches, sampling, ensemble). Read-only fleet tenants
// have no documents and skip this; those methods then answer
// ErrMethodUnavailable, as on any snapshot-only summary.
func (g *Gather) BindSource(src core.TreeSource) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.source = src
	for _, s := range g.combined {
		s.BindSource(src)
	}
}

// Summary returns the full combination of every shard — the summary a
// single merged build over the union corpus would produce.
func (g *Gather) Summary() (*core.Summary, error) {
	return g.combinedFor(g.fullMask())
}

func (g *Gather) fullMask() uint64 {
	if len(g.shards) == MaxShards {
		return ^uint64(0)
	}
	return (uint64(1) << uint(len(g.shards))) - 1
}

// combinedFor returns (building and caching on first use) the combined
// summary over the responder set encoded in mask.
func (g *Gather) combinedFor(mask uint64) (*core.Summary, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.combined[mask]; ok {
		return s, nil
	}
	subset := make([]*core.Summary, 0, len(g.shards))
	for i := range g.shards {
		if mask&(1<<uint(i)) != 0 {
			subset = append(subset, g.shards[i].Summary)
		}
	}
	s, err := core.FromShards(subset)
	if err != nil {
		return nil, err
	}
	if g.source != nil {
		s.BindSource(g.source)
	}
	g.combined[mask] = s
	return s, nil
}

// EstimateOptions tunes one scatter-gather estimate.
type EstimateOptions struct {
	// ShardTimeout bounds each shard's responsiveness probe; a shard
	// that does not answer within it is excluded from this estimate.
	// Zero means probes run under the request context alone.
	ShardTimeout time.Duration
	// NoFallback disables the degradation ladder: a blown budget
	// returns the error instead of a cheaper method's answer.
	NoFallback bool
}

// Result is a scatter-gather estimate: the answer plus how much of the
// fleet produced it. Partial marks an answer some shard sat out of —
// exact for the responding subset's corpus, an undercount for the whole.
type Result struct {
	core.DegradedEstimate
	ShardsTotal    int
	ShardsAnswered int
	Partial        bool
}

// Estimate scatters q's estimate across the responsive shards and
// gathers one combined answer. Unresponsive shards (probe error or
// timeout) degrade the result to Partial rather than failing it; only a
// fleet with no responsive shards at all errors (ErrNoShards).
func (g *Gather) Estimate(ctx context.Context, q labeltree.Pattern, method core.Method, opts EstimateOptions) (Result, error) {
	mask := g.responders(ctx, opts.ShardTimeout)
	res := Result{ShardsTotal: len(g.shards)}
	if mask == 0 {
		return res, ErrNoShards
	}
	sum, err := g.combinedFor(mask)
	if err != nil {
		return res, err
	}
	run := sum.EstimateDegradable
	if opts.NoFallback {
		run = sum.EstimateStrict
	}
	de, err := run(ctx, q, method)
	if err != nil {
		return res, err
	}
	res.DegradedEstimate = de
	for m := mask; m != 0; m &= m - 1 {
		res.ShardsAnswered++
	}
	res.Partial = res.ShardsAnswered < res.ShardsTotal
	if res.Partial {
		res.Degraded = true
	}
	return res, nil
}

// responders probes every shard concurrently and returns the bitmask of
// shards that answered. Probe-less shards always answer.
func (g *Gather) responders(ctx context.Context, timeout time.Duration) uint64 {
	var mask uint64
	probed := false
	for i := range g.shards {
		if g.shards[i].Probe == nil {
			mask |= 1 << uint(i)
		} else {
			probed = true
		}
	}
	if !probed {
		return mask
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := range g.shards {
		if g.shards[i].Probe == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pctx := ctx
			if timeout > 0 {
				var cancel context.CancelFunc
				pctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			if g.shards[i].Probe(pctx) == nil {
				mu.Lock()
				mask |= 1 << uint(i)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return mask
}
