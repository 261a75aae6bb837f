package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"treelattice/internal/labeltree"
	"treelattice/internal/xmlparse"
)

// sampleQueries builds a mixed batch (present patterns, decomposed
// over-size patterns, absent patterns) against buildSample's document.
func sampleQueries(t *testing.T, s *Summary) []labeltree.Pattern {
	t.Helper()
	queries := make([]labeltree.Pattern, 0, 8)
	for _, src := range []string{
		"laptop(brand,price)",
		"computer(laptops(laptop(brand,price)),desktops)",
		"computer(laptops,desktops)",
		"laptop(brand)",
		"computer(laptops(laptop(brand),laptop(price)))",
		"desktops(laptop)", // structurally absent
		"laptop(brand,price)",
	} {
		q, err := s.ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		queries = append(queries, q)
	}
	return queries
}

// TestEstimateBatchMatchesSingle: the batch API is a fan-out, not a
// different estimator — every item must equal the single-query result,
// for every method and worker count.
func TestEstimateBatchMatchesSingle(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	for _, method := range Methods() {
		want := make([]float64, len(queries))
		for i, q := range queries {
			v, err := sum.Estimate(q, method)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		for _, workers := range []int{1, 2, 8} {
			results, err := sum.EstimateBatchContext(context.Background(), queries, method, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(queries) {
				t.Fatalf("%d results for %d queries", len(results), len(queries))
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s w=%d item %d: %v", method, workers, i, r.Err)
				}
				if r.Estimate != want[i] || r.Method != method || r.Degraded {
					t.Fatalf("%s w=%d item %d: got %v/%s/%v want %v/%s", method, workers, i, r.Estimate, r.Method, r.Degraded, want[i], method)
				}
			}
		}
	}
}

func TestEstimateBatchUnknownMethod(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	if _, err := sum.EstimateBatchContext(context.Background(), sampleQueries(t, sum), Method("nope"), BatchOptions{}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
}

func TestEstimateBatchEmpty(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	results, err := sum.EstimateBatchContext(context.Background(), nil, MethodRecursive, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
}

// TestEstimateBatchCancelled: an already-cancelled context fails items
// individually (per-item error envelopes), not the whole call.
func TestEstimateBatchCancelled(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := sum.EstimateBatchContext(ctx, queries, MethodRecursive, BatchOptions{DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestEstimateBatchDegrades: an expired deadline with fallback enabled
// degrades recursive items to fix-sized instead of failing them.
func TestEstimateBatchDegrades(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results, err := sum.EstimateBatchContext(ctx, queries, MethodRecursiveVoting, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if !r.Degraded || r.Method != MethodFixSized {
			t.Fatalf("item %d: not degraded to fix-sized: %+v", i, r)
		}
	}
}

// TestFrozenSummaryEstimates: a summary reloaded via ReadFrozen answers
// every method and the batch API bit-identically to the mutable one.
func TestFrozenSummaryEstimates(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dict := labeltree.NewDict()
	frozen, err := ReadFrozen(bytes.NewReader(buf.Bytes()), dict)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Mutable() || !frozen.FrozenStore() || frozen.StoreKind() != "compressed" {
		t.Fatalf("frozen summary: Mutable=%v FrozenStore=%v StoreKind=%q",
			frozen.Mutable(), frozen.FrozenStore(), frozen.StoreKind())
	}
	if frozen.K() != sum.K() || frozen.Patterns() != sum.Patterns() || frozen.SizeBytes() != sum.SizeBytes() {
		t.Fatal("frozen summary header diverges")
	}
	queries := sampleQueries(t, sum)
	for _, method := range Methods() {
		for i, q := range queries {
			want, err := sum.Estimate(q, method)
			if err != nil {
				t.Fatal(err)
			}
			// Re-parse against the frozen summary's dictionary.
			fq, err := frozen.ParseQuery(q.String(sum.Dict()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := frozen.Estimate(fq, method)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s query %d: frozen %v != mutable %v", method, i, got, want)
			}
		}
	}
}

// TestFrozenSummaryRejectsMutation: every mutating entry point fails
// with ErrFrozenSummary and the summary stays serviceable.
func TestFrozenSummaryRejectsMutation(t *testing.T) {
	sum, tr, _ := buildSample(t, 3)
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	frozen, err := ReadFrozen(bytes.NewReader(buf.Bytes()), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.AddTree(tr); !errors.Is(err, ErrFrozenSummary) {
		t.Fatalf("AddTree err = %v", err)
	}
	if err := frozen.RemoveTree(tr); !errors.Is(err, ErrFrozenSummary) {
		t.Fatalf("RemoveTree err = %v", err)
	}
	if err := frozen.MergeSummary(sum); !errors.Is(err, ErrFrozenSummary) {
		t.Fatalf("MergeSummary err = %v", err)
	}
	if err := sum.MergeSummary(frozen); !errors.Is(err, ErrFrozenSummary) {
		t.Fatalf("MergeSummary(frozen other) err = %v", err)
	}
	if _, err := frozen.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrFrozenSummary) {
		t.Fatalf("WriteTo err = %v", err)
	}
	if got := frozen.Prune(0); got != frozen {
		t.Fatal("Prune on frozen-only summary did not return the summary unchanged")
	}
	// Still serves estimates after the failed mutations.
	q, err := frozen.ParseQuery("laptop(brand,price)")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := frozen.Estimate(q, MethodRecursive); err != nil || v != 2 {
		t.Fatalf("estimate after failed mutations = %v, %v", v, err)
	}
}

// TestFreezeTracksMutation: a read-only snapshot installed on a mutable
// summary (Compress, as the ingest refreeze does) is refreshed by
// mutations, so reads never see stale counts.
func TestFreezeTracksMutation(t *testing.T) {
	sum, _, dict := buildSample(t, 3)
	sum.Compress()
	if !sum.FrozenStore() || !sum.Mutable() {
		t.Fatalf("after Compress: FrozenStore=%v Mutable=%v", sum.FrozenStore(), sum.Mutable())
	}
	q, err := sum.ParseQuery("laptop(brand,price)")
	if err != nil {
		t.Fatal(err)
	}
	before, err := sum.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := xmlparse.Parse(strings.NewReader("<computer><laptops><laptop><brand/><price/></laptop></laptops></computer>"), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.AddTree(extra); err != nil {
		t.Fatal(err)
	}
	after, err := sum.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Fatalf("compressed store stale after AddTree: before=%v after=%v", before, after)
	}
}

// TestSubCacheInvalidatedOnMutation: cached sub-estimates must not
// survive a summary mutation.
func TestSubCacheInvalidatedOnMutation(t *testing.T) {
	sum, _, dict := buildSample(t, 2) // K=2 forces decomposition (and caching) early
	q, err := sum.ParseQuery("computer(laptops(laptop(brand,price)))")
	if err != nil {
		t.Fatal(err)
	}
	before, err := sum.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SubCacheStats().Entries == 0 {
		t.Fatal("no sub-estimates cached")
	}
	extra, err := xmlparse.Parse(strings.NewReader("<computer><laptops><laptop><brand/><price/></laptop></laptops></computer>"), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.AddTree(extra); err != nil {
		t.Fatal(err)
	}
	if got := sum.SubCacheStats().Entries; got != 0 {
		t.Fatalf("%d cached sub-estimates survived AddTree", got)
	}
	after, err := sum.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("estimate unchanged after adding a matching document (stale cache?)")
	}
}

// TestBatchSharesCache: a batch of duplicated structurally-overlapping
// queries hits the shared cache.
func TestBatchSharesCache(t *testing.T) {
	sum, _, _ := buildSample(t, 2)
	q, err := sum.ParseQuery("computer(laptops(laptop(brand,price)))")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]labeltree.Pattern, 16)
	for i := range batch {
		batch[i] = q
	}
	if _, err := sum.EstimateBatchContext(context.Background(), batch, MethodRecursive, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	st := sum.SubCacheStats()
	if st.Hits == 0 {
		t.Fatalf("no shared-cache hits across a duplicated batch: %+v", st)
	}
}

func TestReadFrozenGarbage(t *testing.T) {
	for i, data := range []string{"", "XXXX", "TLAT\x02", "TLAT\x01\x04\x00"} {
		if _, err := ReadFrozen(strings.NewReader(data), labeltree.NewDict()); err == nil {
			t.Errorf("case %d: ReadFrozen accepted garbage", i)
		}
	}
}
