package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/labeltree"
)

// uniquePerSecond sizes the estimate-unique stream above the rate one
// loopback client reaches even on cached answers (about 20,000/s), so
// a faster estimator cannot run the stream dry.
const uniquePerSecond = 24000

// runner holds one run's state.
type runner struct {
	m   *manifest
	cfg config
	out io.Writer
	dur time.Duration

	in  *inputs
	env *env

	req      *requests // the stream the readers send
	pick     func(n int64) (int, bool)
	cursor   atomic.Int64   // estimate-unique: next unused stream entry
	nextW    int            // ingest-mixed: next unsent document
	writeLog []*writeResult // ingest-mixed: every phase's writes

	ref *corpus.Corpus // second read-only replica, opened on demand

	attempted, failed int
	values            map[string]float64
	extra             []metricDef // report-only figures, in r.values
	stamp             map[string]any
}

func (r *runner) ingest() bool { return r.cfg.workload == "ingest-mixed" }

func (r *runner) readers() int {
	if r.ingest() {
		return 1
	}
	return r.m.Traffic.Clients
}

func (r *runner) run(ctx context.Context) (*result, error) {
	step, overhead := timerResolution()
	phases := map[string]float64{}
	lap := time.Now()
	mark := func(name string) {
		phases[name] = time.Since(lap).Seconds()
		lap = time.Now()
	}
	writes := 0
	if r.ingest() {
		writes = int(r.m.Traffic.WriteRatePerS*r.cfg.seconds) + 4
	}
	in, err := generateInputs(r.cfg.workload, r.cfg.seed, r.cfg.scale, writes, int(uniquePerSecond*r.cfg.seconds)+4000, r.m.Server.QueryNodeBudget, !r.cfg.trace)
	if err != nil {
		return nil, err
	}
	r.in = in
	r.values = make(map[string]float64)
	r.choosePicker()
	mark("generate_s")

	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	mark("setup_total_s")
	defer func() {
		if err := r.env.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}()
	cl := newClient(r.env.addr)
	defer cl.close()
	wcl := newClient(r.env.addr)
	defer wcl.close()

	if err := r.warm(ctx, cl); err != nil {
		return nil, err
	}

	var measured, untraced *loopResult
	var writes1 *writeResult
	var lay *layers
	var before, after counters
	var ms0, ms1 runtime.MemStats
	refreezeMS := &refreezeWatch{}
	if r.ingest() {
		stopWatch := refreezeMS.start(r.env.c)
		defer stopWatch()
	}
	if r.cfg.trace {
		u := time.Duration(float64(r.dur) * r.m.Traffic.UntracedShare)
		untraced, _ = r.phase(ctx, cl, wcl, u, 1<<32)
		r.env.startTrace()
		before = r.env.counters()
		runtime.ReadMemStats(&ms0)
		measured, writes1 = r.phase(ctx, cl, wcl, r.dur-u, 2<<32)
		runtime.ReadMemStats(&ms1)
		after = r.env.counters()
		r.env.stopTrace()
	} else {
		measured, writes1 = r.phase(ctx, cl, wcl, r.dur, 1<<32)
	}
	mark("measure_s")
	r.values["summary_resident_bytes"] = float64(r.env.c.Summary().ResidentBytes())

	bad, err := r.check(ctx, wcl, measured, untraced)
	if err != nil {
		return nil, err
	}
	mark("check_s")
	if !r.cfg.trace {
		acc := in.accuracy
		if r.ingest() {
			// Exact counts over the ingested documents cost a few times
			// the base corpus's; every fourth twig keeps the strata even.
			acc = everyNth(acc, 4)
		}
		qerrs, sent, failed := accuracy(wcl, acc, r.addedTrees())
		r.attempted += sent
		r.failed += failed
		r.values["qerror_p50"] = quantile(qerrs, 0.5)
		r.values["qerror_p95"] = quantile(qerrs, 0.95)
	}
	mark("accuracy_s")
	r.endToEnd(measured, writes1)
	if r.cfg.trace {
		if lay, err = r.replay(ctx, measured, writes1); err != nil {
			return nil, err
		}
		r.perLayer(measured, untraced, writes1, lay, after.minus(before), &ms0, &ms1, refreezeMS.samples())
		mark("replay_s")
	}
	r.stamp = map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed,
		"default_seed": r.m.DefaultSeed, "heldout_seed": r.m.HeldoutSeed,
		"trace": r.cfg.trace, "seconds": r.cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"timer_step_ns": step, "timer_overhead_ns": overhead,
		"cache_mode": r.m.Workloads[r.cfg.workload].CacheMode,
		"traffic":    r.m.Workloads[r.cfg.workload].Traffic,
		"server":     r.m.Server,
		"corpus":     map[string]any{"k": r.m.Corpus.K, "elements_per_doc": r.cfg.scale, "profiles": r.m.Corpus.Profiles},
		"clients":    r.readers(),
		"mismatches": bad,
		"phases_s":   phases,
		// A run that sends every twig of the estimate-unique stream ends
		// its phase early rather than repeat one.
		"stream_exhausted": r.cfg.workload == "estimate-unique" && r.cursor.Load() >= int64(r.req.len()),
	}
	if !r.cfg.trace {
		// The heap is read once the harness has let go of everything
		// it generated, sent and checked, so what stays in use is the
		// server's: corpus, summary, caches and indexes.
		r.in, r.req, r.pick, r.writeLog, r.ref = nil, nil, nil, nil, nil
		runtime.GC()
		var heap runtime.MemStats
		runtime.ReadMemStats(&heap)
		r.values["heap_inuse_mb"] = float64(heap.HeapInuse) / (1 << 20)
	}
	res := &result{Correct: bad == 0, Attempted: r.attempted, Failed: r.failed}
	if r.cfg.trace {
		res.Metrics = fill(perLayer, r.values)
	} else {
		res.Metrics = fill(endToEnd, r.values)
	}
	r.report(res)
	return res, nil
}

// choosePicker sets the stream each read draws from and the order.
func (r *runner) choosePicker() {
	cycle := func(n int) func(int64) (int, bool) {
		perm := rand.New(rand.NewSource(subSeed(r.cfg.seed, 300))).Perm(n)
		return func(i int64) (int, bool) { return perm[i%int64(n)], true }
	}
	switch r.cfg.workload {
	case "estimate-unique":
		r.req = r.in.unique
		r.pick = func(int64) (int, bool) {
			i := r.cursor.Add(1) - 1
			return int(i), i < int64(r.req.len())
		}
	case "query-exec":
		r.req = pack(r.in.queries)
		r.pick = cycle(r.req.len())
	default:
		r.req = pack(r.in.hot)
		r.pick = cycle(r.req.len())
	}
}

// setup builds and opens the corpus setupRepeats times (once when
// traced) and keeps the last; setup_s is the median.
func (r *runner) setup(ctx context.Context) error {
	repeats := r.m.Traffic.SetupRepeats
	if r.cfg.trace || repeats < 1 {
		repeats = 1
	}
	var times []float64
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("corpus-%d", i))
		t0 := time.Now()
		e, err := setup(ctx, r.m, dir, r.in, r.ingest(), r.in.hot[0].path, r.cfg.wrap)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < repeats-1 {
			if err := e.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		r.env = e
	}
	r.values["setup_s"] = quantile(times, 0.5)
	return nil
}

// warm fills the caches the workload is meant to run warm and lets
// lazy set-up finish before anything is timed.
func (r *runner) warm(ctx context.Context, cl *client) error {
	for _, t := range r.in.hot {
		if rep := cl.get(t.path, -1); rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", t.text, rep.status, rep.err)
		}
	}
	warm := time.Duration(r.m.Traffic.WarmupMS) * time.Millisecond
	closedLoop(ctx, cl, r.readers(), warm, r.req, r.pick, 0)
	return nil
}

// phase runs the readers (and on ingest-mixed the open-loop writer) for
// dur. Request IDs start at idBase.
func (r *runner) phase(ctx context.Context, cl, wcl *client, dur time.Duration, idBase int64) (*loopResult, *writeResult) {
	var wr *writeResult
	var wg sync.WaitGroup
	if r.ingest() {
		wctx, cancel := context.WithTimeout(ctx, dur)
		defer cancel()
		interval := time.Duration(float64(time.Second) / r.m.Traffic.WriteRatePerS)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = openLoopWriter(wctx, wcl, r.in.writes, r.nextW, interval)
		}()
	}
	lr := closedLoop(ctx, cl, r.readers(), dur, r.req, r.pick, idBase)
	wg.Wait()
	if wr != nil {
		r.nextW += wr.sent
		r.writeLog = append(r.writeLog, wr)
	}
	return lr, wr
}

// check runs the correctness checks on every measured read and write,
// adding them to attempted/failed, and returns the mismatches.
func (r *runner) check(ctx context.Context, cl *client, measured, untraced *loopResult) (int, error) {
	var reads []sample
	for _, l := range []*loopResult{untraced, measured} {
		if l != nil {
			reads = append(reads, l.reads...)
		}
	}
	for _, s := range reads {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	bad := 0
	switch r.cfg.workload {
	case "query-exec":
		bad = checkCounts(r.in.docs, r.in.queries, reads)
	case "ingest-mixed":
		bad = checkFinite(reads)
		for _, w := range r.writeLog {
			r.attempted += w.sent
			r.failed += w.failed
		}
		sample := append(append([]twig(nil), r.in.hot...), accTwigs(everyNth(r.in.accuracy, 50))...)
		sent, mism, err := checkIngest(ctx, r.env, cl, r.m.Corpus.K, len(r.in.docs)+r.accepted(), sample)
		if err != nil {
			return 0, err
		}
		r.attempted += sent
		bad += mism
	default:
		ref, err := r.reference()
		if err != nil {
			return 0, err
		}
		if bad, err = checkEstimates(ctx, ref.Summary(), r.req, reads); err != nil {
			return 0, err
		}
	}
	r.failed += bad
	return bad, nil
}

// addedTrees returns the generated trees of every document the server
// accepted.
func (r *runner) addedTrees() []*labeltree.Tree {
	var out []*labeltree.Tree
	for _, w := range r.writeLog {
		for _, i := range w.added {
			out = append(out, r.in.writes[i].tree)
		}
	}
	return out
}

// accepted counts the documents the server accepted.
func (r *runner) accepted() int { return len(r.addedTrees()) }

// everyNth returns every n-th accuracy entry.
func everyNth(acc []accQuery, n int) []accQuery {
	out := make([]accQuery, 0, len(acc)/n+1)
	for i := 0; i < len(acc); i += n {
		out = append(out, acc[i])
	}
	return out
}

// accTwigs projects accuracy entries to their twigs.
func accTwigs(acc []accQuery) []twig {
	out := make([]twig, len(acc))
	for i, a := range acc {
		out[i] = a.twig
	}
	return out
}

// refreezeWatch samples the corpus's last-refreeze duration each time
// the refreeze count moves; the corpus exposes only the latest value.
type refreezeWatch struct {
	mu sync.Mutex
	ms []float64
}

func (w *refreezeWatch) start(c *corpus.Corpus) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		seen := c.IngestStats().Refreezes
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			st := c.IngestStats()
			if st.Refreezes != seen {
				seen = st.Refreezes
				w.mu.Lock()
				w.ms = append(w.ms, float64(st.LastRefreezeMS))
				w.mu.Unlock()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (w *refreezeWatch) samples() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.ms...)
}

// report prints the human-readable run report: the environment stamp
// as one JSON line, then every metric by name with its unit.
func (r *runner) report(res *result) {
	stamp, _ := json.Marshal(r.stamp)
	fmt.Fprintf(r.out, "stamp %s\n", stamp)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(r.out, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, d := range r.extra {
		fmt.Fprintf(r.out, "%-36s %14.4f %s (report only)\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(r.out, "attempted %d failed %d failed_frac %.6f\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
}
