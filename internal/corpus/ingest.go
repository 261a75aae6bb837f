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
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/fsx"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/resilience"
	"treelattice/internal/xmlparse"
)

// This file is the zero-downtime ingest pipeline: document adds land in
// a small copy-on-write delta overlay, readers serve merged (immutable
// base + delta) views through RCU epoch swaps, and a background
// refreezer periodically folds the delta into a new durable snapshot.
//
// On-disk protocol (all files written with fsx.WriteFileAtomic):
//
//	docs/<name>.tltr     every document, folded or not
//	epoch-NNNNNN.tlat    numbered base snapshots (or .tlcz when compressed)
//	epoch-NNNNNN.meta    numbered manifests: snapshot=<file> + doc=<name> lines
//
// The manifest is the commit point. A refreeze writes the new snapshot
// first, then the manifest naming it together with every folded
// document; only after the manifest rename does it touch in-memory
// state. Reopening scans manifests highest-first, loads the first one
// whose snapshot is readable, and treats documents on disk that the
// winning manifest does not list as "unfolded" — they are re-mined into
// a fresh delta. A crash at any point therefore loses no documents and
// never double-counts: either the old manifest wins (the new snapshot
// is garbage, the cut documents are unfolded) or the new one does (the
// cut is folded exactly once).

// Sentinel errors of the ingest pipeline.
var (
	// ErrIngestBackpressure reports an add rejected because the delta hit
	// its hard size limit before the refreezer caught up. The serving
	// layer maps it to 429 with a Retry-After; the client should back off
	// and resubmit.
	ErrIngestBackpressure = errors.New("corpus: ingest backpressure, delta over hard limit")
	// ErrIngestActive reports a mutation (document removal, summary
	// rewrite) that the ingest pipeline does not support while enabled.
	ErrIngestActive = errors.New("corpus: operation unsupported while ingest is enabled")
)

// IngestOptions configures EnableIngest.
type IngestOptions struct {
	// RefreezeInterval is the cadence of timer-driven refreezes. Zero or
	// negative disables the timer: refreezes run only when the delta
	// crosses a watermark (or on DisableIngest).
	RefreezeInterval time.Duration
	// MaxDeltaBytes / MaxDeltaDocs / MaxDeltaAge are the soft watermarks:
	// crossing any of them kicks the refreezer without blocking the add.
	// Defaults: 4 MiB, 256 documents, 5 minutes.
	MaxDeltaBytes int
	MaxDeltaDocs  int
	MaxDeltaAge   time.Duration
	// HardDeltaBytes is the backpressure limit: adds that would grow the
	// delta past it fail with ErrIngestBackpressure until a refreeze
	// drains it. Default 4 × MaxDeltaBytes.
	HardDeltaBytes int
	// Compress writes refrozen snapshots in the TLCZ form instead of TLAT.
	// Either way the new in-memory base serves from the compressed store.
	Compress bool
	// RefreezeHook, when non-nil, runs after the snapshot write and
	// before the manifest commit — the fault-injection point: an error
	// here aborts the refreeze (no state changes) and the attempt retries
	// with jittered backoff.
	RefreezeHook func(ctx context.Context) error
	// BackoffBase / BackoffMax / BackoffSeed shape the retry schedule for
	// failed refreezes (see resilience.Backoff; zero values take its
	// defaults, seed 0 is time-seeded).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed int64
	// Logf, when non-nil, receives refreeze failure diagnostics.
	Logf func(format string, args ...any)
}

// ingestState is the mutable spine of an enabled ingest pipeline. The
// mutex serializes writers (adds and the refreeze commit section);
// readers never take it — they load the current epoch from handle.
type ingestState struct {
	opts   IngestOptions
	handle *core.EpochHandle

	// freezeMu serializes whole refreeze attempts (the background loop
	// and explicit Refreeze calls).
	freezeMu sync.Mutex
	// foldLat / base / foldedNames / nextN are owned by the refreeze path
	// (written only under freezeMu, with the swap itself under mu).
	foldLat     *lattice.Summary
	base        *core.Summary
	foldedNames []string
	nextN       uint64

	mu         sync.Mutex
	delta      *lattice.Delta
	deltaNames []string // unfolded doc names, in arrival order
	deltaSince time.Time

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	refreezeAttempts atomic.Uint64
	refreezeFailures atomic.Uint64
	refreezes        atomic.Uint64
	lastRefreezeMS   atomic.Int64
	backpressured    atomic.Uint64
}

// ingestRecovery carries the state a manifest-aware open reconstructed,
// so a later EnableIngest resumes the pipeline (numbering, folded set,
// unfolded delta) instead of restarting it.
type ingestRecovery struct {
	base        *core.Summary
	delta       *lattice.Delta
	deltaNames  []string
	foldedNames []string
	nextN       uint64
	handle      *core.EpochHandle
}

// Ingesting reports whether the zero-downtime ingest pipeline is
// enabled. Safe for concurrent use.
func (c *Corpus) Ingesting() bool { return c.ing.Load() != nil }

// IngestStats snapshots the pipeline's observability counters. All
// zeros when ingest is not enabled.
func (c *Corpus) IngestStats() core.IngestStats {
	st := c.ing.Load()
	if st == nil {
		return core.IngestStats{}
	}
	st.mu.Lock()
	d := st.delta
	st.mu.Unlock()
	var epoch uint64
	if cur := st.handle.Current(); cur != nil {
		epoch = cur.ID
	}
	return core.IngestStats{
		Epoch:            epoch,
		DeltaDocs:        d.Docs(),
		DeltaBytes:       d.SizeBytes(),
		RefreezeAttempts: st.refreezeAttempts.Load(),
		RefreezeFailures: st.refreezeFailures.Load(),
		Refreezes:        st.refreezes.Load(),
		LastRefreezeMS:   st.lastRefreezeMS.Load(),
		Backpressured:    st.backpressured.Load(),
	}
}

// EnableIngest switches the corpus into zero-downtime ingest mode:
// subsequent AddXML/AddXMLBatch calls land in the delta overlay,
// readers serve merged epoch views, and a background refreezer folds
// the delta into durable snapshots. Works on mutable and read-only
// (compressed) corpora alike; pruned and shard-combined
// summaries cannot host ingest (their counts cannot be materialized).
func (c *Corpus) EnableIngest(opts IngestOptions) error {
	if c.ing.Load() != nil {
		return errors.New("corpus: ingest already enabled")
	}
	if opts.MaxDeltaBytes <= 0 {
		opts.MaxDeltaBytes = 4 << 20
	}
	if opts.MaxDeltaDocs <= 0 {
		opts.MaxDeltaDocs = 256
	}
	if opts.MaxDeltaAge <= 0 {
		opts.MaxDeltaAge = 5 * time.Minute
	}
	if opts.HardDeltaBytes <= 0 {
		opts.HardDeltaBytes = 4 * opts.MaxDeltaBytes
	}
	st := &ingestState{
		opts: opts,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if rec := c.recovered; rec != nil {
		st.base = rec.base
		st.delta = rec.delta
		st.deltaNames = append([]string(nil), rec.deltaNames...)
		st.foldedNames = append([]string(nil), rec.foldedNames...)
		st.nextN = rec.nextN
		st.handle = rec.handle
		if !st.delta.Empty() {
			st.deltaSince = time.Now()
		}
		c.recovered = nil
	} else {
		st.base = c.summary
		st.delta = lattice.NewDelta(c.opts.K, c.dict)
		st.foldedNames = c.Docs()
		st.nextN = 0
	}
	if st.handle == nil {
		st.handle = &core.EpochHandle{}
	}
	st.handle.SetTwigIndexer(c.indexer)
	foldLat, err := st.base.Materialize()
	if err != nil {
		return fmt.Errorf("corpus: enabling ingest: %w", err)
	}
	st.foldLat = foldLat
	if st.nextN == 0 {
		// First enable on a legacy layout: manifest 0 records that
		// summary.tlat covers exactly the current document set.
		if err := writeManifest(c.dir, 0, filepath.Base(summaryPath(c.dir)), st.foldedNames); err != nil {
			return fmt.Errorf("corpus: enabling ingest: %w", err)
		}
		st.nextN = 1
	}
	names := c.Docs()
	docs := make([]*labeltree.Tree, len(names))
	for i, n := range names {
		docs[i] = c.docs[n]
	}
	st.handle.Publish(st.base, st.delta, docs, names)
	c.ing.Store(st)
	st.wg.Add(1)
	go c.refreezeLoop(st)
	return nil
}

// DisableIngest stops the refreezer, folds any remaining delta, and
// returns the corpus to its classic single-writer mode. Must not run
// concurrently with readers or writers (it is a shutdown/teardown
// operation). A failed final fold is returned but not fatal: the
// unfolded documents are on disk and the manifest protocol recovers
// them on the next open.
func (c *Corpus) DisableIngest() error {
	st := c.ing.Load()
	if st == nil {
		return nil
	}
	close(st.done)
	st.wg.Wait()
	err := c.refreezeOnce(context.Background(), st)
	if err != nil {
		st.refreezeFailures.Add(1)
	}
	cur := st.handle.Current()
	docs := make(map[string]*labeltree.Tree, len(cur.Names))
	for i, n := range cur.Names {
		docs[n] = cur.Docs[i]
	}
	c.docs = docs
	switch {
	case err == nil && st.base.Mutable():
		// Refreezes happened: consolidate back to the legacy layout so
		// classic mutations (which rewrite summary.tlat) stay coherent.
		// Ordering keeps every intermediate state recoverable: the new
		// summary.tlat and the final manifest agree on the counts, so the
		// manifests can go only after summary.tlat lands.
		c.summary = st.base
		c.summary.BindSource(c)
		if werr := c.writeSummary(); werr != nil {
			err = werr
		} else {
			pruneIngestFiles(c.dir, ^uint64(0))
		}
	case err == nil:
		// Ingest enabled but never refroze: nothing changed on disk
		// beyond manifest 0, which restates summary.tlat and is harmless.
		c.summary = st.base
		c.summary.BindSource(c)
	default:
		// Final fold failed: keep serving the merged view; reopen
		// recovers the unfolded documents from docs/ + the manifest.
		c.summary = cur.Summary
	}
	c.ing.Store(nil)
	return err
}

// Refreeze folds the current delta into a new durable snapshot
// immediately, bypassing the timer. Primarily for tests and operational
// tooling; concurrent with serving traffic like any background
// refreeze.
func (c *Corpus) Refreeze(ctx context.Context) error {
	st := c.ing.Load()
	if st == nil {
		return errors.New("corpus: ingest not enabled")
	}
	return c.refreezeOnce(ctx, st)
}

// refreezeLoop is the background refreezer: it waits for a timer tick
// or a watermark kick, then folds, retrying failures with jittered
// exponential backoff until success or shutdown.
func (c *Corpus) refreezeLoop(st *ingestState) {
	defer st.wg.Done()
	var tick <-chan time.Time
	if st.opts.RefreezeInterval > 0 {
		t := time.NewTicker(st.opts.RefreezeInterval)
		defer t.Stop()
		tick = t.C
	}
	bo := &resilience.Backoff{Base: st.opts.BackoffBase, Max: st.opts.BackoffMax, Seed: st.opts.BackoffSeed}
	for {
		select {
		case <-st.done:
			return
		case <-tick:
		case <-st.kick:
		}
		for {
			err := c.refreezeOnce(context.Background(), st)
			if err == nil {
				bo.Reset()
				break
			}
			st.refreezeFailures.Add(1)
			d := bo.Next()
			if st.opts.Logf != nil {
				st.opts.Logf("corpus: refreeze failed (attempt %d, retrying in %v): %v", bo.Attempts(), d, err)
			}
			select {
			case <-st.done:
				return
			case <-time.After(d):
			}
		}
	}
}

// refreezeOnce runs one refreeze attempt: cut the delta, fold it into a
// cloned base lattice, write snapshot then manifest (the commit point),
// and only then swap the in-memory base, trim the delta, and publish
// the new epoch. Failing before the manifest rename changes nothing,
// in memory or on disk, that the next attempt cannot redo.
func (c *Corpus) refreezeOnce(ctx context.Context, st *ingestState) error {
	st.freezeMu.Lock()
	defer st.freezeMu.Unlock()

	st.mu.Lock()
	cut := st.delta
	cutNames := append([]string(nil), st.deltaNames...)
	st.mu.Unlock()
	if cut.Empty() {
		return nil
	}
	st.refreezeAttempts.Add(1)
	start := time.Now()

	newLat := st.foldLat.Clone()
	if err := newLat.Merge(cut.Summary()); err != nil {
		return err
	}
	newBase := core.FromLattice(newLat)
	n := st.nextN
	ext := "tlat"
	if st.opts.Compress {
		ext = "tlcz"
	}
	snapName := fmt.Sprintf("epoch-%06d.%s", n, ext)
	err := fsx.WriteFileAtomic(filepath.Join(c.dir, snapName), func(w io.Writer) error {
		if st.opts.Compress {
			_, err := newBase.WriteCompressed(w)
			return err
		}
		_, err := newBase.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	if st.opts.RefreezeHook != nil {
		if err := st.opts.RefreezeHook(ctx); err != nil {
			return err
		}
	}
	folded := append(append([]string(nil), st.foldedNames...), cutNames...)
	sort.Strings(folded)
	if err := writeManifest(c.dir, n, snapName, folded); err != nil {
		return err
	}

	// Committed. Swap the serving state; from here failures must not
	// leave the in-memory view disagreeing with the manifest.
	newBase.Compress()
	st.mu.Lock()
	rest, serr := st.delta.Subtract(cut)
	if serr != nil {
		// Structurally impossible (the cut is a prefix of the delta);
		// keep serving the old, still-correct view and roll the
		// manifest back so disk agrees with memory.
		st.mu.Unlock()
		os.Remove(filepath.Join(c.dir, manifestName(n)))
		return serr
	}
	st.foldLat = newLat
	st.base = newBase
	st.delta = rest
	st.deltaNames = append([]string(nil), st.deltaNames[len(cutNames):]...)
	st.foldedNames = folded
	st.nextN = n + 1
	if rest.Empty() {
		st.deltaSince = time.Time{}
	} else {
		st.deltaSince = time.Now()
	}
	cur := st.handle.Current()
	st.handle.Publish(st.base, st.delta, cur.Docs, cur.Names)
	st.mu.Unlock()

	st.refreezes.Add(1)
	st.lastRefreezeMS.Store(time.Since(start).Milliseconds())
	pruneIngestFiles(c.dir, n)
	return nil
}

// ingestAdd is the add path while ingest is enabled: parse and mine
// outside the lock, then apply to the delta, persist the document, and
// publish the next epoch under it. Readers pinned to earlier epochs are
// untouched.
func (c *Corpus) ingestAdd(ctx context.Context, st *ingestState, name string, r io.Reader) error {
	if err := validName(name); err != nil {
		return err
	}
	tree, err := xmlparse.Parse(r, c.dict, c.parseOptions())
	if err != nil {
		return err
	}
	inc, err := c.mineTree(ctx, tree)
	if err != nil {
		return err
	}

	st.mu.Lock()
	cur := st.handle.Current()
	idx, exists := cur.HasDoc(name)
	if exists {
		st.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDocExists, name)
	}
	// Gate on the delta as it stands, not delta+increment: an empty
	// delta always accepts, so backpressure can never wedge ingest shut.
	if sz := st.delta.SizeBytes(); st.delta.Docs() > 0 && sz >= st.opts.HardDeltaBytes {
		st.backpressured.Add(1)
		st.mu.Unlock()
		kickNonBlocking(st.kick)
		return fmt.Errorf("%w (%d delta bytes, limit %d)",
			ErrIngestBackpressure, sz, st.opts.HardDeltaBytes)
	}
	next, err := st.delta.Apply(inc)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	if err := c.writeDoc(name, tree); err != nil {
		st.mu.Unlock()
		return err
	}
	names := make([]string, 0, len(cur.Names)+1)
	names = append(names, cur.Names[:idx]...)
	names = append(names, name)
	names = append(names, cur.Names[idx:]...)
	docs := make([]*labeltree.Tree, 0, len(cur.Docs)+1)
	docs = append(docs, cur.Docs[:idx]...)
	docs = append(docs, tree)
	docs = append(docs, cur.Docs[idx:]...)
	st.delta = next
	st.deltaNames = append(st.deltaNames, name)
	if st.deltaSince.IsZero() {
		st.deltaSince = time.Now()
	}
	over := next.SizeBytes() >= st.opts.MaxDeltaBytes ||
		next.Docs() >= st.opts.MaxDeltaDocs ||
		time.Since(st.deltaSince) >= st.opts.MaxDeltaAge
	st.handle.Publish(st.base, st.delta, docs, names)
	st.mu.Unlock()

	if over {
		kickNonBlocking(st.kick)
	}
	return nil
}

// mineTree mines one document into a standalone lattice at the corpus
// configuration — the increment the delta overlay applies.
func (c *Corpus) mineTree(ctx context.Context, tree *labeltree.Tree) (*lattice.Summary, error) {
	sum, err := core.BuildForestContext(ctx, []*labeltree.Tree{tree}, core.BuildOptions{
		K:       c.opts.K,
		Workers: c.workers,
	})
	if err != nil {
		return nil, err
	}
	return sum.Lattice(), nil
}

func kickNonBlocking(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// ---- manifest protocol ----

// ingestManifest is one parsed epoch-NNNNNN.meta file.
type ingestManifest struct {
	n        uint64
	snapshot string
	docs     []string
}

func manifestName(n uint64) string { return fmt.Sprintf("epoch-%06d.meta", n) }

// writeManifest durably records that snapshot covers exactly docs. The
// atomic rename is the refreeze commit point.
func writeManifest(dir string, n uint64, snapshot string, docs []string) error {
	return fsx.WriteFileAtomic(filepath.Join(dir, manifestName(n)), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "snapshot=%s\n", snapshot)
		for _, d := range docs {
			fmt.Fprintf(bw, "doc=%s\n", d)
		}
		return bw.Flush()
	})
}

// parseManifestIndex extracts N from an epoch-NNNNNN.meta (or snapshot)
// file name; ok is false for anything else.
func parseManifestIndex(name, suffix string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "epoch-")
	if !found {
		return 0, false
	}
	num, found := strings.CutSuffix(rest, suffix)
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanManifests parses every readable epoch manifest in dir, sorted
// newest-first. Malformed manifests (a crash can leave none, never a
// half-written one, but defend anyway) are skipped.
func scanManifests(dir string) ([]ingestManifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ingestManifest
	for _, e := range entries {
		n, ok := parseManifestIndex(e.Name(), ".meta")
		if !ok {
			continue
		}
		m, err := readManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		m.n = n
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n > out[j].n })
	return out, nil
}

func readManifest(path string) (ingestManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingestManifest{}, err
	}
	defer f.Close()
	var m ingestManifest
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return ingestManifest{}, fmt.Errorf("corpus: malformed manifest line %q", line)
		}
		switch key {
		case "snapshot":
			m.snapshot = val
		case "doc":
			m.docs = append(m.docs, val)
		default:
			return ingestManifest{}, fmt.Errorf("corpus: unknown manifest key %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return ingestManifest{}, err
	}
	if m.snapshot == "" {
		return ingestManifest{}, errors.New("corpus: manifest missing snapshot")
	}
	return m, nil
}

// pruneIngestFiles removes epoch manifests and snapshots with index
// strictly below keep, best-effort (summary.tlat is never an epoch file
// and is never touched).
func pruneIngestFiles(dir string, below uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		for _, suffix := range []string{".meta", ".tlat", ".tlcz"} {
			if n, ok := parseManifestIndex(e.Name(), suffix); ok && n < below {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// openWithManifest finishes opening a corpus whose directory carries
// epoch manifests. The winning manifest's snapshot becomes the base;
// documents on disk that it does not list are re-mined — into the
// in-memory summary for a mutable open (which then consolidates back to
// the legacy layout), or into a delta overlay for a read-only open
// (which serves the merged view and hands the state to a later
// EnableIngest).
func (c *Corpus) openWithManifest(mans []ingestManifest, readOnly bool) error {
	var winner *ingestManifest
	var base *core.Summary
	var lastErr error
	for i := range mans {
		m := &mans[i]
		sum, err := core.OpenSnapshotFile(filepath.Join(c.dir, m.snapshot), c.dict)
		if err != nil {
			lastErr = err
			continue
		}
		winner, base = m, sum
		break
	}
	if winner == nil {
		return fmt.Errorf("corpus: no loadable ingest snapshot: %w", lastErr)
	}
	if err := c.loadDocs(); err != nil {
		return err
	}
	folded := make(map[string]bool, len(winner.docs))
	for _, n := range winner.docs {
		folded[n] = true
	}
	var unfolded []string
	for _, n := range c.Docs() {
		if !folded[n] {
			unfolded = append(unfolded, n)
		}
	}

	if !readOnly {
		// Mutable open: materialize the base, re-mine the unfolded
		// documents, and consolidate to the legacy layout (summary.tlat
		// covering everything) so classic mutations work from here.
		lat, err := base.Materialize()
		if err != nil {
			return fmt.Errorf("corpus: recovering ingest state: %w", err)
		}
		base.CloseStore()
		sum := core.FromLattice(lat)
		for _, n := range unfolded {
			if err := sum.AddTreeContext(context.Background(), c.docs[n], c.workers); err != nil {
				return fmt.Errorf("corpus: re-mining unfolded %q: %w", n, err)
			}
		}
		c.summary = sum
		c.summary.BindSource(c)
		if err := c.writeSummary(); err != nil {
			return err
		}
		pruneIngestFiles(c.dir, ^uint64(0))
		return nil
	}

	// Read-only open: serve (base + re-mined delta) without writing
	// anything; stash the reconstructed state for EnableIngest.
	rec := &ingestRecovery{
		base:        base,
		delta:       lattice.NewDelta(c.opts.K, c.dict),
		deltaNames:  unfolded,
		foldedNames: winner.docs,
		nextN:       winner.n + 1,
	}
	for _, n := range unfolded {
		inc, err := c.mineTree(context.Background(), c.docs[n])
		if err != nil {
			return fmt.Errorf("corpus: re-mining unfolded %q: %w", n, err)
		}
		if rec.delta, err = rec.delta.Apply(inc); err != nil {
			return err
		}
	}
	if len(unfolded) == 0 {
		c.summary = base
		c.summary.BindSource(c)
		c.recovered = rec
		return nil
	}
	names := c.Docs()
	docs := make([]*labeltree.Tree, len(names))
	for i, n := range names {
		docs[i] = c.docs[n]
	}
	rec.handle = &core.EpochHandle{}
	rec.handle.SetTwigIndexer(c.indexer)
	ep := rec.handle.Publish(base, rec.delta, docs, names)
	c.summary = ep.Summary
	c.recovered = rec
	return nil
}
