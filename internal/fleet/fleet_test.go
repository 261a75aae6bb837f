package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// testCorpus builds a deterministic forest of nDocs random documents
// sharing one dictionary, with stable document names.
func testCorpus(t *testing.T, seed int64, nDocs, docSize int) (*labeltree.Dict, []*labeltree.Tree, []string) {
	t.Helper()
	dict, ids := treetest.Alphabet(8)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*labeltree.Tree, nDocs)
	names := make([]string, nDocs)
	for i := range trees {
		trees[i] = treetest.RandomTree(rng, docSize, ids, dict)
		names[i] = fmt.Sprintf("doc%03d", i)
	}
	return dict, trees, names
}

// buildShards splits the forest by AssignShard and builds one summary
// per non-empty shard, mirroring what `treelattice shard` does on disk.
func buildShards(t *testing.T, trees []*labeltree.Tree, names []string, n int, opts core.BuildOptions) []*core.Summary {
	t.Helper()
	groups := make([][]*labeltree.Tree, n)
	for i, tree := range trees {
		s := fleet.AssignShard(names[i], n)
		groups[s] = append(groups[s], tree)
	}
	var out []*core.Summary
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sum, err := core.BuildForestContext(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("building shard summary: %v", err)
		}
		out = append(out, sum)
	}
	return out
}

// refreeze round-trips a summary through TLAT serialization into the
// read-only compressed store, interning into dict — the load path fleet
// tenants use in production.
func refreeze(t *testing.T, sum *core.Summary, dict *labeltree.Dict) *core.Summary {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatalf("serializing summary: %v", err)
	}
	fz, err := core.ReadFrozen(&buf, dict)
	if err != nil {
		t.Fatalf("loading read-only summary: %v", err)
	}
	return fz
}

// TestScatterGatherDifferential is the tentpole invariant: estimates
// over N shard summaries combined by the front end are bit-identical to
// a single BuildForestContext summary over the same documents — for the
// map backend and for summaries loaded read-only from TLAT ("frozen"),
// and for every registered estimator method.
func TestScatterGatherDifferential(t *testing.T) {
	dict, trees, names := testCorpus(t, 7, 12, 28)
	opts := core.BuildOptions{K: 3}
	ctx := context.Background()
	src := core.TreeSliceSource(trees)

	single, err := core.BuildForestContext(ctx, trees, opts)
	if err != nil {
		t.Fatalf("building single summary: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	_, ids := treetest.Alphabet(8) // same names, same IDs as dict
	queries := make([]labeltree.Pattern, 0, 24)
	for size := 2; size <= 7; size++ {
		for i := 0; i < 4; i++ {
			queries = append(queries, treetest.RandomPattern(rng, size, ids))
		}
	}

	for _, nShards := range []int{2, 4} {
		shards := buildShards(t, trees, names, nShards, opts)
		for _, backend := range []string{"map", "frozen"} {
			singleB := single
			shardsB := shards
			if backend == "frozen" {
				// One shared dict across every TLAT load, as LoadTenant
				// does, so canonical keys agree across shard stores.
				singleB = refreeze(t, single, dict)
				shardsB = make([]*core.Summary, len(shards))
				for i, sh := range shards {
					shardsB[i] = refreeze(t, sh, dict)
				}
			}
			combined, err := core.FromShards(shardsB)
			if err != nil {
				t.Fatalf("FromShards: %v", err)
			}
			// Bind the same documents in the same order to both sides so
			// document-needing methods (markov, treesketches, sampling,
			// ensemble) see identical inputs.
			singleB.BindSource(src)
			combined.BindSource(src)

			if got, want := combined.K(), singleB.K(); got != want {
				t.Fatalf("%s/%d shards: combined K=%d, single K=%d", backend, nShards, got, want)
			}
			for _, method := range core.RegisteredMethods() {
				for qi, q := range queries {
					want, errW := singleB.EstimateStrict(ctx, q, method)
					got, errG := combined.EstimateStrict(ctx, q, method)
					if (errW == nil) != (errG == nil) {
						t.Fatalf("%s/%d shards/%s query %d: single err=%v combined err=%v",
							backend, nShards, method, qi, errW, errG)
					}
					if errW != nil {
						continue
					}
					if got != want {
						t.Fatalf("%s/%d shards/%s query %d: combined=%+v single=%+v",
							backend, nShards, method, qi, got, want)
					}
				}
			}
		}
	}
}

// TestGatherFullAnswer checks the scatter-gather front end itself: a
// fully-responsive gather answers bit-identically to the single summary
// and reports every shard answered.
func TestGatherFullAnswer(t *testing.T) {
	_, trees, names := testCorpus(t, 3, 10, 24)
	opts := core.BuildOptions{K: 3}
	ctx := context.Background()

	single, err := core.BuildForestContext(ctx, trees, opts)
	if err != nil {
		t.Fatal(err)
	}
	sums := buildShards(t, trees, names, 4, opts)
	shards := make([]fleet.Shard, len(sums))
	for i, s := range sums {
		shards[i] = fleet.Shard{Name: fleet.ShardFile(i), Summary: s}
	}
	tenant, err := fleet.NewShardedTenant("acme", shards)
	if err != nil {
		t.Fatal(err)
	}
	q, err := single.ParseQuery("l0(l1)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tenant.Estimate(ctx, q, core.MethodRecursiveVoting, fleet.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.EstimateStrict(ctx, q, core.MethodRecursiveVoting)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != want.Estimate {
		t.Fatalf("gather estimate %v, single %v", res.Estimate, want.Estimate)
	}
	if res.Partial || res.ShardsAnswered != len(sums) || res.ShardsTotal != len(sums) {
		t.Fatalf("full gather reported %+v", res)
	}
}

// TestGatherDegradation: a shard that misses its deadline is excluded,
// the answer covers the responders and is marked degraded/partial, and a
// fleet with no responders fails with ErrNoShards.
func TestGatherDegradation(t *testing.T) {
	_, trees, names := testCorpus(t, 5, 8, 20)
	opts := core.BuildOptions{K: 3}
	ctx := context.Background()
	sums := buildShards(t, trees, names, 2, opts)
	if len(sums) != 2 {
		t.Fatalf("want 2 shards, got %d", len(sums))
	}
	hang := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	g, err := fleet.NewGather([]fleet.Shard{
		{Name: "shard-0000.tlat", Summary: sums[0]},
		{Name: "shard-0001.tlat", Summary: sums[1], Probe: hang},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sums[0].ParseQuery("l0(l1)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Estimate(ctx, q, core.MethodRecursive, fleet.EstimateOptions{ShardTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("degraded estimate failed: %v", err)
	}
	if !res.Partial || !res.Degraded || res.ShardsAnswered != 1 || res.ShardsTotal != 2 {
		t.Fatalf("want partial 1/2 answer, got %+v", res)
	}
	want, err := sums[0].EstimateStrict(ctx, q, core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != want.Estimate {
		t.Fatalf("partial answer %v, responder-only summary says %v", res.Estimate, want.Estimate)
	}

	// Both shards down: nothing to combine.
	g2, err := fleet.NewGather([]fleet.Shard{
		{Name: "a", Summary: sums[0], Probe: hang},
		{Name: "b", Summary: sums[1], Probe: hang},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Estimate(ctx, q, core.MethodRecursive, fleet.EstimateOptions{ShardTimeout: 5 * time.Millisecond}); !errors.Is(err, fleet.ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
}

func TestAssignShardDeterministicAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 64} {
		seen := make(map[int]bool)
		for i := 0; i < 500; i++ {
			doc := fmt.Sprintf("doc-%d.xml", i)
			s := fleet.AssignShard(doc, n)
			if s != fleet.AssignShard(doc, n) {
				t.Fatalf("AssignShard not deterministic for %q", doc)
			}
			if s < 0 || s >= n {
				t.Fatalf("AssignShard(%q, %d) = %d out of range", doc, n, s)
			}
			seen[s] = true
		}
		if n <= 8 && len(seen) != n {
			t.Fatalf("500 docs over %d shards hit only %d shards", n, len(seen))
		}
	}
}
