package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treelattice/internal/corpus"
)

// parityCase is one request sent both to a legacy route (/v1/<path>)
// and to its default-tenant twin (/v1/t/default/<path>).
type parityCase struct {
	name, method, path, body string
}

// parityCases covers the estimate and query envelopes: cache miss and
// hit, unknown label, bad method, bad query, missing q, wrong verb, and
// the query options.
var parityCases = []parityCase{
	{"estimate miss", "GET", "estimate?q=laptop(brand)", ""},
	{"estimate hit", "GET", "estimate?q=laptop(brand)", ""},
	{"estimate recursive", "GET", "estimate?q=laptop(brand,price)&method=recursive", ""},
	{"estimate unknown label", "GET", "estimate?q=nosuchlabel(brand)", ""},
	{"estimate bad method", "GET", "estimate?q=laptop(brand)&method=bogus", ""},
	{"estimate bad query", "GET", "estimate?q=a((", ""},
	{"estimate missing q", "GET", "estimate", ""},
	{"estimate wrong verb", "PUT", "estimate?q=laptop(brand)", ""},
	{"query count", "GET", "query?q=//laptop(brand)&count=1", ""},
	{"query limit", "GET", "query?q=//laptop(brand,price)&limit=1", ""},
	{"query naive", "GET", "query?q=//laptop(brand)&naive=1", ""},
	{"query post", "POST", "query", `{"q":"//laptop(price)","limit":2}`},
	{"query unknown label", "GET", "query?q=//nosuchlabel", ""},
	{"query bad method", "GET", "query?q=//laptop&method=bogus", ""},
}

// rawDo sends one request and returns the status, Allow header and raw
// body.
func rawDo(t *testing.T, method, url, body string) (int, string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Allow"), data
}

// stripTenant removes the "tenant":"default" member a tenant route adds
// to its answer; every other byte must match the legacy route.
func stripTenant(body []byte) []byte {
	for _, member := range []string{`"tenant":"default",`, `,"tenant":"default"`} {
		if i := bytes.Index(body, []byte(member)); i >= 0 {
			return append(body[:i:i], body[i+len(member):]...)
		}
	}
	return body
}

// paritySide is one server and the two route prefixes each request
// reaches it by, in order.
type paritySide struct {
	label    string
	url      string
	prefixes [2]string
}

// TestDefaultTenantRouteParity: /v1/X and /v1/t/default/X are the same
// tenant, so every answer must be byte-identical once the tenant echo is
// removed — before and after classic uploads (which mutate the summary
// in place and must invalidate every cached answer for the tenant),
// across ingest epochs, and for degraded answers under an expired
// estimate budget. Three servers per configuration receive every
// request twice: one through the legacy route both times, one through
// the tenant route both times, and one through both, in alternating
// order. The n-th answers of the three must agree. Sending twice covers
// the response-cache hit after the miss: the second send of an estimate
// is answered from the entry the first one cached (the first send after
// an upload misses, since uploads drop the tenant's cache), and on the
// mixed server that hit goes through the other route shape than the
// request that filled it.
func TestDefaultTenantRouteParity(t *testing.T) {
	configs := []struct {
		name   string
		ingest bool
		opts   Options
	}{
		{name: "classic"},
		{name: "degraded", opts: Options{Resilience: ResilienceOptions{EstimateBudget: time.Nanosecond}}},
		{name: "ingest", ingest: true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			newURL := func() string {
				c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
				if err != nil {
					t.Fatal(err)
				}
				if cfg.ingest {
					if err := c.EnableIngest(corpus.IngestOptions{}); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.DisableIngest() })
				}
				srv := httptest.NewServer(NewHandlerOptions(c, cfg.opts))
				t.Cleanup(srv.Close)
				return srv.URL
			}
			const legacy, tenant = "/v1/", "/v1/t/default/"
			sides := []paritySide{
				{"legacy", newURL(), [2]string{legacy, legacy}},
				{"tenant", newURL(), [2]string{tenant, tenant}},
				{"mixed", newURL(), [2]string{legacy, tenant}},
			}
			sawDegraded := false
			for round := 0; round < 3; round++ {
				if round > 0 {
					name := fmt.Sprintf("doc%d", round)
					for _, s := range sides {
						if code, _, body := rawDo(t, "POST", s.url+"/v1/docs/"+name, doc); code != http.StatusCreated {
							t.Fatalf("%s upload %s: %d %s", s.label, name, code, body)
						}
					}
				}
				for i, pc := range parityCases {
					type answer struct {
						from        string
						code        int
						allow, body string
					}
					var answers [2][]answer
					for _, s := range sides {
						prefixes := s.prefixes
						if i%2 == 1 {
							prefixes[0], prefixes[1] = prefixes[1], prefixes[0]
						}
						for n, p := range prefixes {
							code, allow, body := rawDo(t, pc.method, s.url+p+pc.path, pc.body)
							if p == legacy && bytes.Contains(body, []byte(`"tenant"`)) {
								t.Fatalf("round %d %s: legacy route echoed a tenant: %s", round, pc.name, body)
							}
							if bytes.Contains(body, []byte(`"degraded":true`)) {
								sawDegraded = true
							}
							answers[n] = append(answers[n], answer{s.label + " " + p, code, allow, string(stripTenant(body))})
						}
					}
					for n, same := range answers {
						want := same[0]
						for _, got := range same[1:] {
							if got.code != want.code || got.allow != want.allow || got.body != want.body {
								t.Errorf("round %d %s, request %d: %s answered %d %q %s; %s answered %d %q %s",
									round, pc.name, n+1, want.from, want.code, want.allow, want.body,
									got.from, got.code, got.allow, got.body)
							}
						}
					}
				}
			}
			if cfg.opts.Resilience.EstimateBudget > 0 && !sawDegraded {
				t.Fatal("expired budget produced no degraded answer")
			}
		})
	}
}

// TestDefaultTenantRoutesRaceUploads runs the default tenant's read
// routes concurrently with classic uploads, which replace the corpus
// summary under the handler's write lock. Every read must pin the
// summary under the read lock (go test -race flags one that does not),
// and once the uploads finish both route shapes must agree.
func TestDefaultTenantRoutesRaceUploads(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/seed", doc); code != http.StatusCreated {
		t.Fatalf("seed: %d %v", code, out)
	}
	reads := []string{
		"/v1/t/default/estimate?q=laptop(brand)",
		"/v1/t/default/query?q=//laptop(brand)&count=1",
		"/v1/t/default/stats",
		"/v1/tenants",
		"/v1/readyz",
	}
	const uploads = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range reads {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d %s", path, resp.StatusCode, body)
					return
				}
			}
		}(path)
	}
	for i := 0; i < uploads; i++ {
		code, _, body := rawDo(t, "POST", fmt.Sprintf("%s/v1/docs/d%d", srv.URL, i), doc)
		if code != http.StatusCreated {
			t.Errorf("upload %d: %d %s", i, code, body)
		}
	}
	close(stop)
	wg.Wait()

	want := float64(2 * (uploads + 1))
	for _, path := range []string{"/v1/estimate?q=laptop(brand)", "/v1/t/default/estimate?q=laptop(brand)"} {
		code, out := do(t, "GET", srv.URL+path, "")
		if code != http.StatusOK || out["estimate"] != want {
			t.Fatalf("%s after uploads: %d %v, want estimate %v", path, code, out, want)
		}
	}
}
