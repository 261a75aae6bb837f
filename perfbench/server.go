package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/obs"
	"treelattice/internal/serve"
)

// serverOptions are the serving options of every run, from the manifest.
func serverOptions(m *manifest, reg *obs.Registry) serve.Options {
	return serve.Options{
		Registry: reg,
		Resilience: serve.ResilienceOptions{
			AdmissionLimit:  m.Server.AdmissionLimit,
			AdmissionQueue:  m.Server.AdmissionQueue,
			QueueWait:       time.Duration(m.Server.QueueWaitMS) * time.Millisecond,
			QueryNodeBudget: m.Server.QueryNodeBudget,
		},
	}
}

// env is one set-up server: the corpus replica behind serve.Handler,
// wrapped by the benchmark's span recorders, listening on loopback.
type env struct {
	dir     string
	c       *corpus.Corpus
	backend *tracedBackend
	mw      *middleware
	reg     *obs.Registry
	srv     *http.Server
	addr    string
	served  chan error
	ingest  bool
	snaps   *snapshotLog
}

// setup builds the corpus from the pre-rendered documents (parse, mine,
// snapshot), opens the serving replica, starts the server and waits for
// its first answer. probe is the path of that first request.
func setup(ctx context.Context, m *manifest, dir string, in *inputs, ingest bool, probe string, wrap func(http.Handler) http.Handler) (*env, error) {
	c, err := corpus.Create(dir, corpus.Options{K: m.Corpus.K})
	if err != nil {
		return nil, fmt.Errorf("creating corpus: %w", err)
	}
	docs := make([]corpus.BatchDoc, len(in.docXML))
	for i, x := range in.docXML {
		docs[i] = corpus.BatchDoc{Name: string(in.profiles[i]), R: bytes.NewReader(x)}
	}
	if err := c.AddXMLBatch(ctx, docs); err != nil {
		return nil, fmt.Errorf("building corpus: %w", err)
	}
	e := &env{dir: dir, reg: obs.NewRegistry(), ingest: ingest}
	if ingest {
		if e.c, err = corpus.Open(dir); err != nil {
			return nil, fmt.Errorf("opening corpus: %w", err)
		}
		e.snaps = &snapshotLog{dir: dir}
		ing := m.Server.Ingest
		err = e.c.EnableIngest(corpus.IngestOptions{
			RefreezeInterval: time.Duration(ing.RefreezeIntervalMS) * time.Millisecond,
			MaxDeltaDocs:     ing.MaxDeltaDocs,
			MaxDeltaBytes:    ing.MaxDeltaBytes,
			HardDeltaBytes:   ing.HardDeltaBytes,
			RefreezeHook:     e.snaps.hook,
		})
		if err != nil {
			e.c = nil
			return nil, fmt.Errorf("enabling ingest: %w", err)
		}
	} else if e.c, err = corpus.OpenReadOnly(dir); err != nil {
		return nil, fmt.Errorf("opening replica: %w", err)
	}
	e.backend = &tracedBackend{Backend: e.c}
	e.mw = &middleware{next: serve.NewHandlerOptions(e.backend, serverOptions(m, e.reg))}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.addr = ln.Addr().String()
	var handler http.Handler = e.mw
	if wrap != nil {
		handler = wrap(handler)
	}
	// The client does not redial a keep-alive connection the server
	// dropped, so idle connections must outlive the longest pause
	// between phases (the checks and the from-scratch rebuild).
	e.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 10 * time.Minute}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	cl := newClient(e.addr)
	defer cl.close()
	if r := cl.get(probe, -1); r.err != nil || r.status != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("first answer: status %d: %v", r.status, r.err)
	}
	return e, nil
}

// close stops the server, waits for it, and stops the ingest pipeline.
func (e *env) close() error {
	var errs []error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.srv = nil
	}
	if e.ingest && e.c != nil {
		errs = append(errs, e.c.DisableIngest())
	}
	e.c = nil
	return errors.Join(errs...)
}

// snapshotLog records, through the ingest refreeze hook (which runs after
// the snapshot write), the size of the newest snapshot the refreezer
// wrote.
type snapshotLog struct {
	dir  string
	last atomic.Int64
}

func (s *snapshotLog) hook(context.Context) error {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "epoch-*.tlat"))
	var newest string
	for _, m := range matches {
		if m > newest {
			newest = m
		}
	}
	if newest == "" {
		return nil
	}
	if st, err := os.Stat(newest); err == nil {
		s.last.Store(st.Size())
	}
	return nil // sizing is best effort; never fail a refreeze
}

// tracedBackend wraps serve.Backend: with tracing on it times every
// document add (the corpus.add span). Off, it only forwards.
type tracedBackend struct {
	serve.Backend
	on   atomic.Bool
	mu   sync.Mutex
	adds samples
}

func (b *tracedBackend) AddXMLContext(ctx context.Context, name string, r io.Reader) error {
	if !b.on.Load() {
		return b.Backend.AddXMLContext(ctx, name, r)
	}
	t0 := time.Now()
	err := b.Backend.AddXMLContext(ctx, name, r)
	d := int64(time.Since(t0))
	b.mu.Lock()
	b.adds = append(b.adds, d)
	b.mu.Unlock()
	return err
}

var _ serve.Backend = (*tracedBackend)(nil)
var _ serve.Backend = (*corpus.Corpus)(nil)

// idHeader carries the client's request ID to the middleware, so the
// handler span can be paired with the client round trip.
const idHeader = "X-Bench-Id"

// middleware wraps serve.Handler.ServeHTTP: with tracing on it records
// the handler span of every request carrying an ID.
type middleware struct {
	next  http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans map[int64]int64
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.on.Load() {
		m.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	m.next.ServeHTTP(w, r)
	d := int64(time.Since(t0))
	id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
	if err != nil || id < 0 {
		return
	}
	m.mu.Lock()
	m.spans[id] = d
	m.mu.Unlock()
}

// startTrace turns span recording on for both wrappers.
func (e *env) startTrace() {
	e.mw.mu.Lock()
	e.mw.spans = make(map[int64]int64, 1<<16)
	e.mw.mu.Unlock()
	e.mw.on.Store(true)
	e.backend.on.Store(true)
}

// stopTrace turns span recording off.
func (e *env) stopTrace() {
	e.mw.on.Store(false)
	e.backend.on.Store(false)
}

// counters snapshots the server's obs counters the ledger reads.
type counters struct {
	qHits, qMisses          uint64
	subHits, subMisses      uint64
	subEvictions            uint64
	shed, queued            uint64
	epoch, refreezes, backp uint64
}

func (e *env) counters() counters {
	r := e.reg
	var c counters
	c.qHits = r.Counter("qcache.hits").Value()
	c.qMisses = r.Counter("qcache.misses").Value()
	for _, m := range core.Methods() {
		c.subHits += r.Counter("subcache." + string(m) + ".hits").Value()
		c.subMisses += r.Counter("subcache." + string(m) + ".misses").Value()
		c.subEvictions += r.Counter("subcache." + string(m) + ".evictions").Value()
	}
	c.shed = r.Counter("resilience.shed").Value()
	c.queued = r.Counter("resilience.queued").Value()
	if e.c != nil {
		st := e.c.IngestStats()
		c.epoch, c.refreezes, c.backp = st.Epoch, st.Refreezes, st.Backpressured
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		qHits: c.qHits - o.qHits, qMisses: c.qMisses - o.qMisses,
		subHits: c.subHits - o.subHits, subMisses: c.subMisses - o.subMisses,
		subEvictions: c.subEvictions - o.subEvictions,
		shed:         c.shed - o.shed, queued: c.queued - o.queued,
		epoch: c.epoch - o.epoch, refreezes: c.refreezes - o.refreezes, backp: c.backp - o.backp,
	}
}
