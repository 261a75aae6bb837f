package serve

import (
	"context"
	"errors"
	"net/http"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
	"treelattice/internal/obs"
	"treelattice/internal/qcache"
)

// DefaultTenant is the live corpus's tenant name: the legacy routes
// answer as it, so /v1/estimate and /v1/t/default/estimate are one
// tenant, one handler and one cache scope.
const DefaultTenant = "default"

// tenantHandler serves one request as tenant name; echo says whether the
// answer names the tenant (the /v1/t/{tenant} routes do, the legacy
// routes do not).
type tenantHandler func(w http.ResponseWriter, r *http.Request, name string, echo bool)

// asDefault serves fn on a legacy route: as the default tenant, without
// the tenant echo.
func asDefault(fn tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { fn(w, r, DefaultTenant, false) }
}

// byName serves fn on a /v1/t/{tenant} route.
func byName(fn tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { fn(w, r, r.PathValue("tenant"), true) }
}

// tenantMetrics is one tenant's slice of the obs registry. The metric
// names are namespaced under tenant.<name>.* so the existing flat names
// (http.*, resilience.*, subcache.*) keep their meaning — loadbench and
// dashboards scraping them see fleet-wide totals, and the per-tenant
// split is additive.
type tenantMetrics struct {
	requests *obs.Counter
	shed     *obs.Counter
}

// tenantMetricsFor returns (creating on first use) name's counters. The
// default tenant's are resolved once, at construction, so legacy
// traffic takes no lock here. Names are validated before this point, so
// the label space is bounded by the tenants that actually exist.
func (h *Handler) tenantMetricsFor(name string) *tenantMetrics {
	if name == DefaultTenant {
		return h.defaultMetrics
	}
	h.tenantMu.Lock()
	defer h.tenantMu.Unlock()
	tm, ok := h.tenantStats[name]
	if !ok {
		tm = newTenantMetrics(h.reg, name)
		h.tenantStats[name] = tm
	}
	return tm
}

func newTenantMetrics(reg *obs.Registry, name string) *tenantMetrics {
	return &tenantMetrics{
		requests: reg.Counter("tenant." + name + ".requests"),
		shed:     reg.Counter("tenant." + name + ".shed"),
	}
}

// pin resolves tenant name for one request. The default tenant is the
// live corpus: its summary changes with every upload and ingest epoch,
// so it is read per request under the read lock, which release drops.
// Every other name loads through the fleet registry (when one is
// configured); fleet tenants are immutable, so their release does
// nothing.
func (h *Handler) pin(ctx context.Context, name string) (tn *fleet.Tenant, release func(), err error) {
	if name == DefaultTenant {
		sum, release := h.pinDefault()
		return fleet.NewTenant(DefaultTenant, sum), release, nil
	}
	if h.flt == nil {
		if err := fleet.ValidateName(name); err != nil {
			return nil, nil, err
		}
		return nil, nil, fleet.ErrUnknownTenant
	}
	tn, err = h.flt.Acquire(ctx, name)
	return tn, func() {}, err
}

// pinDefault is pin for the default tenant, which always resolves: the
// corpus summary, read under the read lock that release drops.
func (h *Handler) pinDefault() (sum *core.Summary, release func()) {
	h.mu.RLock()
	return h.c.Summary(), h.mu.RUnlock
}

// admit applies name's admission quota on top of the global limiter: the
// limiter decides whether the server has capacity, the quota whether one
// tenant may monopolize it. A false return has already answered 429; a
// true one must be paired with h.quota.Release(name).
func (h *Handler) admit(w http.ResponseWriter, name string) bool {
	tm := h.tenantMetricsFor(name)
	if !h.quota.Acquire(name) {
		tm.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "shed",
			"tenant over its admission quota; retry later")
		return false
	}
	tm.requests.Inc()
	return true
}

// scopeFor derives the whole-query cache scope for an estimate against
// tenant name's summary sum: one scope per tenant name, so tenants never
// share entries. When the summary belongs to a published RCU epoch, the
// epoch ID joins the key, so an estimate cached against one epoch can
// never answer a lookup against another — publishing IS the
// invalidation. Fleet tenants loaded from static snapshots carry no
// epoch; their registry generation fills the slot, so a reload makes the
// previous generation's entries unreachable. The default tenant outside
// the ingest pipeline carries epoch 0 and relies on DropScope on
// mutation.
func (h *Handler) scopeFor(name string, sum *core.Summary) qcache.Scope {
	sc := qcache.Scope{Tenant: name}
	if ep, ok := sum.Source().(*core.Epoch); ok {
		sc.Epoch = ep.ID
	} else if name != DefaultTenant && h.flt != nil {
		sc.Epoch = h.flt.Generation(name)
	}
	return sc
}

// tenantReload serves POST /v1/t/{tenant}/reload: hot-swap the tenant's
// freshly published snapshots into the registry without evicting the
// serving copy — in-flight estimates finish against the old tenant,
// new requests see the new one. The fleet-side half of zero-downtime
// ingest: a writer replica refreezes, then the serving fleet reloads.
func (h *Handler) tenantReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := fleet.ValidateName(name); err != nil {
		writeCoreError(w, err)
		return
	}
	if name == DefaultTenant {
		writeError(w, http.StatusConflict, "reload_failed",
			"default tenant is the live corpus; it publishes epochs, not snapshot reloads")
		return
	}
	if h.flt == nil {
		writeCoreError(w, fleet.ErrUnknownTenant)
		return
	}
	tn, err := h.flt.Reload(r.Context(), name)
	if err != nil {
		switch {
		case errors.Is(err, fleet.ErrBadName), errors.Is(err, fleet.ErrUnknownTenant),
			errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeCoreError(w, err)
		default:
			writeError(w, http.StatusConflict, "reload_failed", err.Error())
		}
		return
	}
	// The generation bump already routes new lookups past the old
	// entries; dropping them too frees the LRU slots immediately.
	h.cache.DropScope(name)
	writeJSON(w, map[string]any{
		"tenant":     name,
		"reloaded":   true,
		"generation": h.flt.Generation(name),
		"backend":    tn.StoreKind(),
		"shards":     tn.Shards,
	})
}

// tenantStatsEndpoint serves GET /v1/t/{tenant}/stats: the tenant's
// summary shape, traffic counters, and sub-estimate cache
// effectiveness.
func (h *Handler) tenantStatsEndpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	tn, release, err := h.pin(r.Context(), name)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	defer release()
	tm := h.tenantMetricsFor(name)
	writeJSON(w, map[string]any{
		"tenant":         name,
		"shards":         tn.Shards,
		"epoch":          h.scopeFor(name, tn.Summary).Epoch,
		"k":              tn.Summary.K(),
		"patterns":       tn.Summary.Patterns(),
		"bytes":          tn.Summary.SizeBytes(),
		"backend":        tn.StoreKind(),
		"resident_bytes": tn.ResidentBytes(),
		"requests":       tm.requests.Value(),
		"shed":           tm.shed.Value(),
		"in_flight":      h.quota.InFlight(name),
		"subcache":       h.subcacheSummary(tn.Summary),
	})
}

// tenantsEndpoint serves GET /v1/tenants: residence and churn of the
// fleet registry, plus per-tenant backend kind and resident footprint
// for every loaded tenant and the default tenant.
func (h *Handler) tenantsEndpoint(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"default": DefaultTenant}
	tenants := map[string]any{}
	if h.flt != nil {
		names := h.flt.Resident()
		resp["resident"] = names
		resp["registry"] = h.flt.Stats()
		for _, name := range names {
			if tn, ok := h.flt.Peek(name); ok {
				tenants[name] = tenantShape(tn)
			}
		}
	} else {
		resp["resident"] = []string{DefaultTenant}
	}
	def, release := h.pinDefault()
	tenants[DefaultTenant] = tenantShape(fleet.NewTenant(DefaultTenant, def))
	release()
	resp["tenants"] = tenants
	writeJSON(w, resp)
}

// tenantShape is the /v1/tenants per-tenant entry: which backend the
// tenant's summary runs on and how many bytes it keeps resident.
func tenantShape(tn *fleet.Tenant) map[string]any {
	return map[string]any{
		"backend":        tn.StoreKind(),
		"shards":         tn.Shards,
		"resident_bytes": tn.ResidentBytes(),
	}
}

// healthz serves GET /v1/healthz — pure liveness: the process answers.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// readyz serves GET /v1/readyz — readiness for load-balancer rotation:
// the default tenant resolves and admission control has spare capacity.
// 503 keeps new traffic away without killing the replica (that is
// healthz's job).
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	if h.limiter.Saturated() {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"admission control saturated")
		return
	}
	_, release := h.pinDefault()
	release()
	writeJSON(w, map[string]any{"status": "ready"})
}

// tenantsSummary is the /v1/stats "tenants" section: per-tenant request
// and shed totals plus sub-estimate cache hit ratio, for the default
// tenant (whose summary def the caller has pinned) and every tenant that
// has seen traffic. Other tenants report their caches only while
// resident.
func (h *Handler) tenantsSummary(def *core.Summary) map[string]any {
	h.tenantMu.Lock()
	names := make([]string, 0, len(h.tenantStats)+1)
	names = append(names, DefaultTenant)
	for name := range h.tenantStats {
		names = append(names, name)
	}
	h.tenantMu.Unlock()
	out := make(map[string]any, len(names))
	for _, name := range names {
		tm := h.tenantMetricsFor(name)
		entry := map[string]any{
			"requests": tm.requests.Value(),
			"shed":     tm.shed.Value(),
		}
		var sum *core.Summary
		if name == DefaultTenant {
			sum = def
		} else if tn, ok := h.flt.Peek(name); ok {
			sum = tn.Summary
		}
		if sum != nil {
			entry["subcache_hit_ratio"] = subcacheHitRatio(sum.SubCacheStats())
			entry["backend"] = sum.StoreKind()
			entry["resident_bytes"] = sum.ResidentBytes()
		}
		out[name] = entry
	}
	return out
}
