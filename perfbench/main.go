// Command perfbench is the repository benchmark: it serves a generated
// four-profile corpus through serve.Handler on loopback TCP, drives one
// of four workloads against it from the same process, checks every
// answer, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger) as one JSON object on the last line of stdout.
//
//	go build -o perfbench . && ./perfbench --workload estimate-hot --seed 1 --seconds 10 --trace 0
//
// Workloads, server options and the metric rationale are in
// manifest.json next to this file.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

//go:embed manifest.json
var manifestJSON []byte

// manifest is manifest.json: seeds, corpus shape, server options,
// traffic shape, and the rationale for every workload and layer metric.
type manifest struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldoutSeed int64 `json:"heldout_seed"`
	Corpus      struct {
		K              int      `json:"k"`
		ElementsPerDoc int      `json:"elements_per_doc"`
		Profiles       []string `json:"profiles"`
	} `json:"corpus"`
	Server struct {
		AdmissionLimit  int   `json:"admission_limit"`
		AdmissionQueue  int   `json:"admission_queue"`
		QueueWaitMS     int   `json:"queue_wait_ms"`
		QueryNodeBudget int64 `json:"query_node_budget"`
		Ingest          struct {
			RefreezeIntervalMS int `json:"refreeze_interval_ms"`
			MaxDeltaDocs       int `json:"max_delta_docs"`
			MaxDeltaBytes      int `json:"max_delta_bytes"`
			HardDeltaBytes     int `json:"hard_delta_bytes"`
		} `json:"ingest"`
	} `json:"server"`
	Traffic struct {
		Clients       int     `json:"clients"`
		WriteRatePerS float64 `json:"write_rate_per_s"`
		SetupRepeats  int     `json:"setup_repeats"`
		WarmupMS      int     `json:"warmup_ms"`
		UntracedShare float64 `json:"untraced_share_of_traced_run"`
	} `json:"traffic"`
	Workloads map[string]struct {
		Traffic   string   `json:"traffic"`
		CacheMode string   `json:"cache_mode"`
		Why       string   `json:"why"`
		Loads     []string `json:"loads"`
		Bypasses  []string `json:"bypasses"`
	} `json:"workloads"`
	PerLayer map[string]struct {
		Moves    string `json:"moves"`
		Workload string `json:"workload"`
		Measures string `json:"measures"`
	} `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("manifest.json: %w", err)
	}
	return &m, nil
}

// workloadNames lists the workloads in manifest order.
var workloadNames = []string{"estimate-hot", "estimate-unique", "query-exec", "ingest-mixed"}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	w := fs.String("workload", "", "workload: estimate-hot | estimate-unique | query-exec | ingest-mixed")
	seed := fs.Int64("seed", 0, "workload seed (0 = the manifest's default seed)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	m, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *seed == 0 {
		*seed = m.DefaultSeed
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale:   m.Corpus.ElementsPerDoc,
		workDir: filepath.Join(wd, ".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())),
	}
	res, err := run(context.Background(), m, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // elements per corpus document
	workDir  string // corpora live here; removed at the end
	// wrap, when set, wraps the served handler: tests use it to plant a
	// wrong answer and check that the benchmark counts it.
	wrap func(next http.Handler) http.Handler
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// validWorkload reports whether w names a workload.
func validWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// run executes one benchmark run and returns its result line; the
// human-readable report goes to out.
func run(ctx context.Context, m *manifest, cfg config, out io.Writer) (*result, error) {
	if !validWorkload(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	r := &runner{m: m, cfg: cfg, out: out, dur: time.Duration(cfg.seconds * float64(time.Second))}
	return r.run(ctx)
}
