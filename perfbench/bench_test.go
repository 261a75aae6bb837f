package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"testing"
)

// shortConfig is a run small enough for a unit test: 3,000-element
// documents, half a second of traffic, one set-up.
func shortConfig(t *testing.T, workload string, trace bool) (*manifest, config) {
	t.Helper()
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	m.Traffic.SetupRepeats = 1
	m.Traffic.WarmupMS = 100
	return m, config{workload: workload, seed: m.DefaultSeed, seconds: 0.5, trace: trace, scale: 3000, workDir: t.TempDir()}
}

// TestShortRunsReportEveryMetric runs every workload briefly, untraced
// and traced, and checks the result line carries exactly the catalogue's
// metrics with their units, with every answer correct.
func TestShortRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			m, cfg := shortConfig(t, w, trace)
			res, err := run(context.Background(), m, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, got, d.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.name, got.Value)
				}
			}
		}
	}
}

// TestWrongAnswerCountsAsFailed plants one wrong estimate among the
// measured answers and checks the run counts it as failed.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	m, cfg := shortConfig(t, "estimate-hot", false)
	target := strconv.FormatInt(1<<32+10, 10) // the 11th measured request
	cfg.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(idHeader) != target {
				next.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"query": r.URL.Query().Get("q"), "estimate": 123456.5})
		})
	}
	res, err := run(context.Background(), m, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want the planted answer counted once", res.Correct, res.Failed)
	}
}

// TestCatalogueMatchesBenchmark keeps BENCHMARK.json, the metric
// catalogue and manifest.json's rationale in step.
func TestCatalogueMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalogue %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (def{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, d := range perLayer {
		if r, ok := m.PerLayer[d.name]; !ok || r.Moves == "" || r.Workload == "" {
			t.Errorf("manifest.json: no rationale for per-layer metric %s", d.name)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("manifest.json: %d per-layer rationales, catalogue has %d metrics", len(m.PerLayer), len(perLayer))
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for _, w := range b.Workloads {
		if !validWorkload(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
		if _, ok := m.Workloads[w.Name]; !ok {
			t.Errorf("manifest.json: no rationale for workload %q", w.Name)
		}
	}
}

// TestRequestsRoundTrip checks a packed stream gives back every path and
// the twig text each path carries.
func TestRequestsRoundTrip(t *testing.T) {
	ts := []twig{
		{text: "a(b,c)", path: "/v1/estimate?q=" + url.QueryEscape("a(b,c)")},
		{text: "x(y(z))", path: "/v1/query?count=1&q=" + url.QueryEscape("x(y(z))")},
		{text: "p(//q,r)", path: "/v1/query?count=1&q=" + url.QueryEscape("p(//q,r)")},
	}
	req := pack(ts)
	if req.len() != len(ts) {
		t.Fatalf("len = %d, want %d", req.len(), len(ts))
	}
	for i, tw := range ts {
		if got := req.path(i); got != tw.path {
			t.Errorf("path(%d) = %q, want %q", i, got, tw.path)
		}
		if got := req.text(i); got != tw.text {
			t.Errorf("text(%d) = %q, want %q", i, got, tw.text)
		}
	}
}
