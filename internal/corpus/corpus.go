// Package corpus manages a directory of XML documents with a persistent,
// incrementally maintained TreeLattice summary — the packaging a
// downstream system embeds: add and remove documents, estimate twig
// selectivities across the whole corpus, and reopen without re-mining.
//
// Layout under the corpus root:
//
//	corpus.meta          K, bucket configuration (plain text key=value)
//	summary.tlat         the merged lattice summary
//	docs/<name>.tltr     each document in the binary tree format
//
// All mutating operations write the summary through to disk; a corpus is
// single-writer (no file locking is attempted).
package corpus

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"treelattice/internal/core"
	"treelattice/internal/fsx"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/match"
	"treelattice/internal/metrics"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// Sentinel errors callers can branch on with errors.Is.
var (
	// ErrDocExists reports an add under a name already in the corpus.
	ErrDocExists = errors.New("corpus: document already exists")
	// ErrNoSuchDoc reports an operation on a name not in the corpus.
	ErrNoSuchDoc = errors.New("corpus: no such document")
)

// buildEmptySummary returns a zero-document summary at level k.
func buildEmptySummary(k int, dict *labeltree.Dict) (*core.Summary, error) {
	return core.FromLattice(lattice.New(k, dict)), nil
}

// Options configures corpus creation.
type Options struct {
	// K is the lattice level (default 4).
	K int
	// ValueBuckets and Attributes pass through to XML parsing; they must
	// stay fixed for the corpus lifetime and are persisted in the meta
	// file.
	ValueBuckets int
	Attributes   bool
}

// Corpus is an open corpus. Not safe for concurrent mutation; callers
// that mutate under traffic (the HTTP handler) serialize externally.
type Corpus struct {
	dir     string
	opts    Options
	dict    *labeltree.Dict
	summary *core.Summary
	docs    map[string]*labeltree.Tree
	workers int
	// unboundedParse lifts the default XML parse limits (depth, node
	// count). Set for CLI bulk loads of trusted files; leave unset when
	// parsing untrusted uploads.
	unboundedParse bool
	// lastBuild holds the per-stage timings of the most recent mutation
	// (add, batch add, remove).
	lastBuild *metrics.BuildTimings
	// ing, when non-nil, is the enabled zero-downtime ingest pipeline;
	// readers route through its current epoch instead of the fields
	// above (see ingest.go). Loaded atomically so readers never lock.
	ing atomic.Pointer[ingestState]
	// recovered carries ingest state reconstructed by a manifest-aware
	// read-only open, consumed by the next EnableIngest.
	recovered *ingestRecovery
	// indexer caches one twigjoin region index per document tree for
	// query execution; built at load, shared across ingest epochs
	// (epochs reuse unchanged tree pointers, so their indexes carry
	// over). Never nil after Create/open.
	indexer *twigjoin.Indexer
}

var _ core.TreeSource = (*Corpus)(nil)

// SetUnboundedParse lifts (true) or restores (false) the default XML
// parse limits for subsequent AddXML/AddXMLBatch calls. The limits exist
// for untrusted /v1/docs uploads; bulk CLI ingestion of trusted local
// files opts out.
func (c *Corpus) SetUnboundedParse(on bool) { c.unboundedParse = on }

// parseOptions assembles the xmlparse options for this corpus.
func (c *Corpus) parseOptions() xmlparse.Options {
	opts := xmlparse.Options{
		ValueBuckets: c.opts.ValueBuckets,
		Attributes:   c.opts.Attributes,
	}
	if c.unboundedParse {
		opts.MaxNodes = xmlparse.Unlimited
		opts.MaxDepth = xmlparse.Unlimited
	}
	return opts
}

// SetWorkers bounds the parallelism of subsequent summary-building
// operations (document fan-out and per-level candidate counting). Zero
// or negative, the default, means GOMAXPROCS; 1 forces sequential
// builds.
func (c *Corpus) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.workers = n
}

// Workers returns the configured build parallelism (0 = GOMAXPROCS).
func (c *Corpus) Workers() int { return c.workers }

// BuildTimings returns the per-stage timings of the most recent mutating
// operation, or nil if none has run.
func (c *Corpus) BuildTimings() *metrics.BuildTimings { return c.lastBuild }

// Create initializes a new corpus directory. dir must not already contain
// a corpus.
func Create(dir string, opts Options) (*Corpus, error) {
	if opts.K == 0 {
		opts.K = 4
	}
	if _, err := os.Stat(metaPath(dir)); err == nil {
		return nil, fmt.Errorf("corpus: %s already contains a corpus", dir)
	}
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		return nil, err
	}
	c := &Corpus{
		dir:     dir,
		opts:    opts,
		dict:    labeltree.NewDict(),
		docs:    make(map[string]*labeltree.Tree),
		indexer: twigjoin.NewIndexer(),
	}
	// An empty summary: build from a lattice with no entries.
	empty, err := buildEmptySummary(opts.K, c.dict)
	if err != nil {
		return nil, err
	}
	c.summary = empty
	c.summary.BindSource(c)
	if err := c.writeMeta(); err != nil {
		return nil, err
	}
	if err := c.writeSummary(); err != nil {
		return nil, err
	}
	return c, nil
}

// Open loads an existing corpus with a mutable summary. The summary
// file must be in the TLAT form (the form writeSummary maintains);
// compressed snapshots carry no mutable backend and are rejected here —
// load those with OpenReadOnly. A directory left behind by the
// zero-downtime ingest pipeline (epoch manifests present) is recovered
// and consolidated back to the legacy layout: the winning snapshot is
// materialized, unfolded documents are re-mined, and summary.tlat is
// rewritten to cover everything.
func Open(dir string) (*Corpus, error) {
	return open(dir, false)
}

// OpenReadOnly loads an existing corpus with its summary in the
// immutable compressed store (front-coded blocks), whichever snapshot
// format the summary file's magic names: TLAT snapshots decode onto the
// heap, TLCZ snapshots open memory-mapped where the platform supports
// it. The map backend is never materialized, estimate lookups are
// allocation-free, and every mutating operation fails with
// core.ErrFrozenSummary. The load path
// for read-only serving replicas. Ingest state left by a crashed or
// stopped pipeline is recovered without writing: unfolded documents are
// re-mined into a delta overlay and served merged with the snapshot.
func OpenReadOnly(dir string) (*Corpus, error) {
	return open(dir, true)
}

func open(dir string, readOnly bool) (*Corpus, error) {
	opts, err := readMeta(metaPath(dir))
	if err != nil {
		return nil, err
	}
	c := &Corpus{
		dir:     dir,
		opts:    opts,
		dict:    labeltree.NewDict(),
		docs:    make(map[string]*labeltree.Tree),
		indexer: twigjoin.NewIndexer(),
	}
	mans, err := scanManifests(dir)
	if err != nil {
		return nil, err
	}
	if len(mans) > 0 {
		if err := c.openWithManifest(mans, readOnly); err != nil {
			return nil, err
		}
		return c, nil
	}
	if readOnly {
		c.summary, err = core.OpenSnapshotFile(summaryPath(dir), c.dict)
	} else {
		c.summary, err = func() (*core.Summary, error) {
			f, oerr := os.Open(summaryPath(dir))
			if oerr != nil {
				return nil, oerr
			}
			defer f.Close()
			return core.Read(f, c.dict)
		}()
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: loading summary: %w", err)
	}
	if err := c.loadDocs(); err != nil {
		return nil, err
	}
	// The corpus itself is the summary's document source: sampling,
	// markov, and treesketch backends prepare from the live doc set.
	// Read-only replicas load their document trees too, so every backend
	// works on read-only summaries.
	c.summary.BindSource(c)
	// Region-index every loaded document once, up front: query execution
	// then never pays an index build on the request path.
	c.indexer.ForAll(c.Trees())
	return c, nil
}

// loadDocs reads every document tree under docs/ into the in-memory map.
func (c *Corpus) loadDocs() error {
	entries, err := os.ReadDir(filepath.Join(c.dir, "docs"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".tltr")
		if !ok {
			continue
		}
		tree, err := c.readDoc(name)
		if err != nil {
			return err
		}
		c.docs[name] = tree
	}
	return nil
}

// Options returns the corpus configuration.
func (c *Corpus) Options() Options { return c.opts }

// Dict returns the corpus label dictionary (parse queries against it).
func (c *Corpus) Dict() *labeltree.Dict { return c.dict }

// Summary returns the live corpus summary. While ingest is enabled this
// is the current epoch's merged (base + delta) view; callers that load
// it once per request stay pinned to that epoch for the request's
// lifetime even as later epochs are published.
func (c *Corpus) Summary() *core.Summary {
	if st := c.ing.Load(); st != nil {
		return st.handle.Current().Summary
	}
	return c.summary
}

// Docs lists document names in sorted order.
func (c *Corpus) Docs() []string {
	if st := c.ing.Load(); st != nil {
		return append([]string(nil), st.handle.Current().Names...)
	}
	out := make([]string, 0, len(c.docs))
	for n := range c.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DocNames implements core.DocNamer: document names positionally
// aligned with Trees().
func (c *Corpus) DocNames() []string { return c.Docs() }

// TwigIndexer implements core.TwigIndexerSource: the corpus-lifetime
// region-index cache query execution runs on.
func (c *Corpus) TwigIndexer() *twigjoin.Indexer { return c.indexer }

// Doc returns a loaded document tree by name.
func (c *Corpus) Doc(name string) (*labeltree.Tree, bool) {
	if st := c.ing.Load(); st != nil {
		ep := st.handle.Current()
		if i, ok := ep.HasDoc(name); ok {
			return ep.Docs[i], true
		}
		return nil, false
	}
	t, ok := c.docs[name]
	return t, ok
}

// Trees implements core.TreeSource: the loaded document trees in sorted
// name order (a stable order keeps sampling probe selection
// deterministic). The slice reflects the live doc set; document mutations
// invalidate prepared backends through the summary.
func (c *Corpus) Trees() []*labeltree.Tree {
	if st := c.ing.Load(); st != nil {
		return st.handle.Current().Trees()
	}
	out := make([]*labeltree.Tree, 0, len(c.docs))
	for _, name := range c.Docs() {
		out = append(out, c.docs[name])
	}
	return out
}

// AddXML parses an XML document from r, folds it into the summary, and
// persists both. Adding under an existing name wraps ErrDocExists.
func (c *Corpus) AddXML(name string, r io.Reader) error {
	return c.AddXMLContext(context.Background(), name, r)
}

// AddXMLContext is AddXML with cancellation: the incoming document is
// mined into a private lattice with the corpus's configured worker count
// and merged only on success, so a canceled upload leaves the summary and
// the on-disk state untouched.
func (c *Corpus) AddXMLContext(ctx context.Context, name string, r io.Reader) error {
	if st := c.ing.Load(); st != nil {
		return c.ingestAdd(ctx, st, name, r)
	}
	if err := validName(name); err != nil {
		return err
	}
	if _, exists := c.docs[name]; exists {
		return fmt.Errorf("%w: %q", ErrDocExists, name)
	}
	timings := &metrics.BuildTimings{}
	stop := timings.Start("parse")
	tree, err := xmlparse.Parse(r, c.dict, c.parseOptions())
	stop()
	if err != nil {
		return err
	}
	stop = timings.Start("mine")
	err = c.summary.AddTreeContext(ctx, tree, c.workers)
	stop()
	if err != nil {
		return err
	}
	stop = timings.Start("persist")
	defer stop()
	if err := c.writeDoc(name, tree); err != nil {
		return err
	}
	c.docs[name] = tree
	c.lastBuild = timings
	return c.writeSummary()
}

// Remove deletes a document and subtracts its counts. Unknown names wrap
// ErrNoSuchDoc. Removal is not supported while the ingest pipeline is
// enabled (the delta overlay is add-only); disable ingest first.
func (c *Corpus) Remove(name string) error {
	if c.ing.Load() != nil {
		return fmt.Errorf("%w: remove %q", ErrIngestActive, name)
	}
	tree, ok := c.docs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDoc, name)
	}
	if err := c.summary.RemoveTree(tree); err != nil {
		return err
	}
	delete(c.docs, name)
	if err := os.Remove(c.docPath(name)); err != nil {
		return err
	}
	return c.writeSummary()
}

// EstimateQuery estimates a twig query's selectivity across the corpus.
func (c *Corpus) EstimateQuery(query string, method core.Method) (float64, error) {
	return c.Summary().EstimateQuery(query, method)
}

// ExactCount counts a query's matches exactly by scanning every document.
func (c *Corpus) ExactCount(q labeltree.Pattern) int64 {
	total, _ := c.ExactCountContext(context.Background(), q)
	return total
}

// ExactCountContext is ExactCount with cooperative cancellation: the
// per-document counting DP polls ctx at bounded intervals, so a deadline
// interrupts a Definition-1 ground-truth scan mid-document instead of
// after it.
func (c *Corpus) ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error) {
	var total int64
	for _, tree := range c.Trees() {
		n, err := match.NewCounter(tree).CountContext(ctx, q)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ---- persistence helpers ----

func metaPath(dir string) string    { return filepath.Join(dir, "corpus.meta") }
func summaryPath(dir string) string { return filepath.Join(dir, "summary.tlat") }

func (c *Corpus) docPath(name string) string {
	return filepath.Join(c.dir, "docs", name+".tltr")
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("corpus: invalid document name %q", name)
	}
	return nil
}

func (c *Corpus) writeMeta() error {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d\nvaluebuckets=%d\nattributes=%v\n",
		c.opts.K, c.opts.ValueBuckets, c.opts.Attributes)
	return fsx.WriteFileAtomic(metaPath(c.dir), func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

func readMeta(path string) (Options, error) {
	f, err := os.Open(path)
	if err != nil {
		return Options{}, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	opts := Options{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Options{}, fmt.Errorf("corpus: malformed meta line %q", line)
		}
		switch key {
		case "k":
			opts.K, err = strconv.Atoi(val)
		case "valuebuckets":
			opts.ValueBuckets, err = strconv.Atoi(val)
		case "attributes":
			opts.Attributes, err = strconv.ParseBool(val)
		default:
			err = fmt.Errorf("corpus: unknown meta key %q", key)
		}
		if err != nil {
			return Options{}, err
		}
	}
	if err := sc.Err(); err != nil {
		return Options{}, err
	}
	if opts.K < 2 {
		return Options{}, fmt.Errorf("corpus: meta has invalid K=%d", opts.K)
	}
	return opts, nil
}

func (c *Corpus) writeSummary() error {
	return fsx.WriteFileAtomic(summaryPath(c.dir), func(w io.Writer) error {
		_, err := c.summary.WriteTo(w)
		return err
	})
}

func (c *Corpus) writeDoc(name string, t *labeltree.Tree) error {
	return fsx.WriteFileAtomic(c.docPath(name), func(w io.Writer) error {
		_, err := labeltree.WriteTree(w, t)
		return err
	})
}

func (c *Corpus) readDoc(name string) (*labeltree.Tree, error) {
	f, err := os.Open(c.docPath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return labeltree.ReadTree(f, c.dict)
}
