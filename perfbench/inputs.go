package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/match"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// Input shape. The corpus is one document per Table 3 profile; the
// streams are sized so every workload runs without repeating (unique) or
// cycling through a set that fits the response cache (hot).
const (
	hotTwigs       = 256  // estimate-hot: fits qcache's 4,096 entries
	queryTwigs     = 2000 // query-exec: branching twigs, child and // edges
	accuracyPer    = 250  // q-error subsample twigs per (profile, size) stratum
	negativeShare  = 0.25 // zero-selectivity share of every mix
	writeDocScale  = 2000 // elements per ingest-mixed document
	descendantEdge = 0.35 // chance a query-exec edge uses the // axis
	heavyShare     = 0.05 // query-exec twigs that exhaust the node budget
)

// twig is one request of a stream: its text as sent, the full request
// URL path, and the pattern in the generation dictionary.
type twig struct {
	text    string
	path    string
	pattern labeltree.Pattern
	query   twigjoin.Query // query-exec only
}

// requests is a stream of request paths packed into one string, so a
// stream of a hundred thousand twigs adds two objects, not two hundred
// thousand, to the heap the server's garbage collector marks.
type requests struct {
	paths string
	end   []int32 // request i is paths[end[i-1]:end[i]]
}

func pack(ts []twig) *requests {
	var b strings.Builder
	q := &requests{end: make([]int32, len(ts))}
	for i, t := range ts {
		b.WriteString(t.path)
		q.end[i] = int32(b.Len())
	}
	q.paths = b.String()
	return q
}

func (q *requests) len() int { return len(q.end) }

func (q *requests) path(i int) string {
	lo := int32(0)
	if i > 0 {
		lo = q.end[i-1]
	}
	return q.paths[lo:q.end[i]]
}

// text is the twig request i sends, decoded from its q parameter.
func (q *requests) text(i int) string {
	p := q.path(i)
	v, _ := url.ParseQuery(p[strings.IndexByte(p, '?')+1:])
	return v.Get("q")
}

// accQuery is an accuracy-subsample entry with its exact count over the
// base documents.
type accQuery struct {
	twig
	exact int64
}

// inputs is everything a run sends, generated from the seed before
// set-up starts; generation time is excluded from every metric.
type inputs struct {
	profiles []datagen.Profile
	docs     []*labeltree.Tree // base corpus, one per profile
	docXML   [][]byte
	hot      []twig
	queries  []twig    // query-exec stream
	unique   *requests // estimate-unique stream
	accuracy []accQuery
	writes   []writeDoc // ingest-mixed documents
}

// writeDoc is one pre-rendered ingest-mixed document.
type writeDoc struct {
	name string
	xml  []byte
	tree *labeltree.Tree
}

// subSeed derives an independent seed for stream i of the run seed.
func subSeed(seed int64, i int64) int64 { return seed*1_000_003 + i*7_919 + 17 }

// generateInputs builds the corpus documents and the streams workload w
// needs. uniqueCap bounds the estimate-unique stream length; accuracy
// adds the exact-counted q-error subsample.
func generateInputs(w string, seed int64, scale, writes, uniqueCap int, nodeBudget int64, accuracy bool) (*inputs, error) {
	dict := labeltree.NewDict()
	in := &inputs{profiles: datagen.AllProfiles()}
	for i, p := range in.profiles {
		t, err := datagen.Generate(datagen.Config{Profile: p, Scale: scale, Seed: subSeed(seed, int64(i))}, dict)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", p, err)
		}
		var b bytes.Buffer
		if err := xmlparse.Write(&b, t); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", p, err)
		}
		in.docs = append(in.docs, t)
		in.docXML = append(in.docXML, b.Bytes())
	}
	s := newSampler(in.docs, subSeed(seed, 100))
	in.hot = s.estimateSet(hotTwigs, 3, 5, nil)
	switch w {
	case "estimate-unique":
		seen := make(map[labeltree.Key]bool, uniqueCap)
		for _, t := range in.hot {
			seen[t.pattern.Key()] = true
		}
		in.unique = pack(s.estimateSet(uniqueCap, 3, 8, seen))
	case "query-exec":
		qs, err := s.querySet(queryTwigs, nodeBudget)
		if err != nil {
			return nil, err
		}
		in.queries = qs
	case "ingest-mixed":
		for j := 0; j < writes; j++ {
			p := in.profiles[j%len(in.profiles)]
			t, err := datagen.Generate(datagen.Config{Profile: p, Scale: writeDocScale, Seed: subSeed(seed, int64(1000+j))}, dict)
			if err != nil {
				return nil, fmt.Errorf("generating ingest doc: %w", err)
			}
			var b bytes.Buffer
			if err := xmlparse.Write(&b, t); err != nil {
				return nil, err
			}
			in.writes = append(in.writes, writeDoc{name: fmt.Sprintf("ingest-%s-%05d", p, j), xml: b.Bytes(), tree: t})
		}
	}
	if !accuracy {
		return in, nil
	}
	acc := newSampler(in.docs, subSeed(seed, 200)).stratified(accuracyPer, 3, 8)
	counters := make([]*match.Counter, len(in.docs))
	for i, t := range in.docs {
		counters[i] = match.NewCounter(t)
	}
	for _, t := range acc {
		in.accuracy = append(in.accuracy, accQuery{twig: t, exact: exactCount(counters, t.pattern)})
	}
	return in, nil
}

// exactCount is the Definition 1 match count of p over the documents.
func exactCount(counters []*match.Counter, p labeltree.Pattern) int64 {
	var n int64
	for _, c := range counters {
		n += c.Count(p)
	}
	return n
}

// sampler draws twigs by growing random connected subtrees of the
// documents, and derives zero-selectivity twigs the way
// workload.Negative does: relabel one node with a label drawn in
// proportion to label frequency. Where Negative proves the result is
// zero by exact counting, the sampler keeps only relabels that create a
// parent/child label pair no document contains, which proves it without
// a document scan.
type sampler struct {
	rng    *rand.Rand
	docs   []*labeltree.Tree
	edges  map[[2]labeltree.LabelID]bool
	labels []labeltree.LabelID
	cum    []int
}

func newSampler(docs []*labeltree.Tree, seed int64) *sampler {
	s := &sampler{rng: rand.New(rand.NewSource(seed)), docs: docs, edges: make(map[[2]labeltree.LabelID]bool)}
	freq := make(map[labeltree.LabelID]int)
	for _, t := range docs {
		for v := int32(0); int(v) < t.Size(); v++ {
			freq[t.Label(v)]++
			if p := t.Parent(v); p >= 0 {
				s.edges[[2]labeltree.LabelID{t.Label(p), t.Label(v)}] = true
			}
		}
	}
	for l := range freq {
		s.labels = append(s.labels, l)
	}
	sort.Slice(s.labels, func(a, b int) bool { return s.labels[a] < s.labels[b] })
	total := 0
	for _, l := range s.labels {
		total += freq[l]
		s.cum = append(s.cum, total)
	}
	return s
}

// positive grows a connected subtree of size nodes from a random node of
// a random document.
func (s *sampler) positive(size int) (labeltree.Pattern, bool) {
	return s.positiveIn(s.docs[s.rng.Intn(len(s.docs))], size)
}

// positiveIn is positive within document t.
func (s *sampler) positiveIn(t *labeltree.Tree, size int) (labeltree.Pattern, bool) {
	start := int32(s.rng.Intn(t.Size()))
	chosen := []int32{start}
	in := map[int32]bool{start: true}
	var frontier []int32
	for len(chosen) < size {
		frontier = frontier[:0]
		for _, v := range chosen {
			for _, c := range t.Children(v) {
				if !in[c] {
					frontier = append(frontier, c)
				}
			}
		}
		up := t.Parent(chosen[0])
		if up >= 0 {
			frontier = append(frontier, up)
		}
		if len(frontier) == 0 {
			return labeltree.Pattern{}, false
		}
		pick := frontier[s.rng.Intn(len(frontier))]
		in[pick] = true
		if pick == up {
			chosen = append([]int32{pick}, chosen...)
		} else {
			chosen = append(chosen, pick)
		}
	}
	sort.Slice(chosen, func(a, b int) bool { return chosen[a] < chosen[b] })
	idx := make(map[int32]int32, len(chosen))
	labels := make([]labeltree.LabelID, len(chosen))
	parents := make([]int32, len(chosen))
	for i, v := range chosen {
		idx[v] = int32(i)
		labels[i] = t.Label(v)
		parents[i] = -1
		if i > 0 {
			parents[i] = idx[t.Parent(v)]
		}
	}
	p, err := labeltree.NewPattern(labels, parents)
	return p, err == nil
}

// negative relabels one node of p so that the twig provably has no
// match: the new label forms a parent/child pair with a neighbour that
// occurs in no document.
func (s *sampler) negative(p labeltree.Pattern) (labeltree.Pattern, bool) {
	node := int32(s.rng.Intn(p.Size()))
	x := s.rng.Intn(s.cum[len(s.cum)-1])
	l := s.labels[sort.SearchInts(s.cum, x+1)]
	if l == p.Label(node) {
		return labeltree.Pattern{}, false
	}
	q := p.Relabel(node, l)
	if par := q.Parent(node); par >= 0 && !s.edges[[2]labeltree.LabelID{q.Label(par), l}] {
		return q, true
	}
	for _, c := range q.Children(node) {
		if !s.edges[[2]labeltree.LabelID{l, q.Label(c)}] {
			return q, true
		}
	}
	return labeltree.Pattern{}, false
}

// estimateSet draws n distinct child-axis twigs of sizes lo..hi, a
// negativeShare of them zero-selectivity, skipping keys in seen (which
// it extends). It stops early when the documents run out of distinct
// twigs.
func (s *sampler) estimateSet(n, lo, hi int, seen map[labeltree.Key]bool) []twig {
	if seen == nil {
		seen = make(map[labeltree.Key]bool, n)
	}
	dict := s.docs[0].Dict()
	out := make([]twig, 0, n)
	for misses := 0; len(out) < n && misses < 50*n+1000; {
		p, ok := s.positive(lo + s.rng.Intn(hi-lo+1))
		if ok && s.rng.Float64() < negativeShare {
			p, ok = s.negative(p)
		}
		if !ok {
			misses++
			continue
		}
		k := p.Key()
		if seen[k] {
			misses++
			continue
		}
		seen[k] = true
		text := p.String(dict)
		out = append(out, twig{text: text, path: "/v1/estimate?q=" + url.QueryEscape(text), pattern: p})
	}
	return out
}

// stratified draws per distinct child-axis twigs from every document for
// every size lo..hi, a negativeShare of them zero-selectivity. Equal
// strata keep the q-error quantiles from following how many twigs of
// each profile and size a seed happened to draw.
func (s *sampler) stratified(per, lo, hi int) []twig {
	dict := s.docs[0].Dict()
	seen := make(map[labeltree.Key]bool)
	var out []twig
	for _, t := range s.docs {
		for size := lo; size <= hi; size++ {
			for got, misses := 0, 0; got < per && misses < 50*per; {
				p, ok := s.positiveIn(t, size)
				if ok && s.rng.Float64() < negativeShare {
					p, ok = s.negative(p)
				}
				if !ok || seen[p.Key()] {
					misses++
					continue
				}
				seen[p.Key()] = true
				text := p.String(dict)
				out = append(out, twig{text: text, path: "/v1/estimate?q=" + url.QueryEscape(text), pattern: p})
				got++
			}
		}
	}
	return out
}

// querySet draws n distinct branching twigs of sizes 3..5 whose edges
// mix the child and descendant axes. Negatives are relabels verified to
// have no match by the region-index executor. A fixed heavyShare of the
// twigs exhaust nodeBudget in stored order and the rest do not, so the
// latency quantiles measure the executor, not how many combinatorial
// twigs a seed happened to draw.
func (s *sampler) querySet(n int, nodeBudget int64) ([]twig, error) {
	dict := s.docs[0].Dict()
	idx := make([]*twigjoin.Index, len(s.docs))
	for i, t := range s.docs {
		idx[i] = twigjoin.NewIndex(t)
	}
	seen := make(map[string]bool, n)
	out := make([]twig, 0, n)
	heavyLeft := int(heavyShare * float64(n))
	lightLeft := n - heavyLeft
	for misses := 0; len(out) < n; {
		if misses > 200*n {
			return nil, fmt.Errorf("query-exec: only %d of %d branching twigs found", len(out), n)
		}
		p, ok := s.positive(3 + s.rng.Intn(3))
		if !ok || !branching(p) {
			misses++
			continue
		}
		neg := s.rng.Float64() < negativeShare
		if neg {
			if p, ok = s.negative(p); !ok {
				misses++
				continue
			}
		}
		axes := make([]twigjoin.Axis, p.Size())
		axes[0] = twigjoin.Descendant
		for i := 1; i < p.Size(); i++ {
			if s.rng.Float64() < descendantEdge {
				axes[i] = twigjoin.Descendant
			}
		}
		q, err := twigjoin.NewQuery(p, axes)
		if err != nil {
			return nil, err
		}
		if neg && !provablyEmpty(idx, q) {
			misses++
			continue
		}
		text := q.String(dict)
		if seen[text] {
			misses++
			continue
		}
		heavy := exhausts(idx, q, nodeBudget)
		if (heavy && heavyLeft == 0) || (!heavy && lightLeft == 0) {
			misses++
			continue
		}
		if heavy {
			heavyLeft--
		} else {
			lightLeft--
		}
		seen[text] = true
		out = append(out, twig{text: text, path: "/v1/query?count=1&q=" + url.QueryEscape(text), pattern: p, query: q})
	}
	return out, nil
}

// provablyEmpty reports whether q has no match in any document, within a
// node budget (an exhausted budget proves nothing).
func provablyEmpty(idx []*twigjoin.Index, q twigjoin.Query) bool {
	budget := int64(1 << 20)
	for _, x := range idx {
		st, err := twigjoin.CountContext(context.Background(), x, q, nil, &budget)
		if err != nil || st.Matches > 0 {
			return false
		}
	}
	return true
}

// exhausts reports whether counting q over every document in stored
// order runs out of one shared node budget, as a served query does.
func exhausts(idx []*twigjoin.Index, q twigjoin.Query, nodeBudget int64) bool {
	budget := nodeBudget
	for _, x := range idx {
		if _, err := twigjoin.CountContext(context.Background(), x, q, nil, &budget); err != nil {
			return true
		}
	}
	return false
}

// branching reports whether some node of p has two or more children.
func branching(p labeltree.Pattern) bool {
	for i := int32(0); int(i) < p.Size(); i++ {
		if len(p.Children(i)) >= 2 {
			return true
		}
	}
	return false
}
