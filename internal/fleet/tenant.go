package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
)

// Tenant is one resident corpus: a named summary (possibly the combined
// view over several shards) ready to answer estimates.
type Tenant struct {
	Name string
	// Summary answers estimates: the tenant's single summary, or the
	// full shard combination for a sharded tenant.
	Summary *core.Summary
	// Gather is the scatter-gather front end; nil for single-summary
	// tenants.
	Gather *Gather
	// Shards is the number of shard snapshots backing the tenant (1 for
	// a single summary).
	Shards int
}

// Estimate answers one estimate for the tenant, through the
// scatter-gather front end when the tenant is sharded. Single-summary
// tenants answer with a trivially-full Result (one shard, answered).
func (t *Tenant) Estimate(ctx context.Context, q labeltree.Pattern, method core.Method, opts EstimateOptions) (Result, error) {
	if t.Gather != nil {
		return t.Gather.Estimate(ctx, q, method, opts)
	}
	run := t.Summary.EstimateDegradable
	if opts.NoFallback {
		run = t.Summary.EstimateStrict
	}
	de, err := run(ctx, q, method)
	if err != nil {
		return Result{ShardsTotal: 1}, err
	}
	return Result{DegradedEstimate: de, ShardsTotal: 1, ShardsAnswered: 1}, nil
}

// NewTenant wraps an in-memory summary as an unsharded tenant — the path
// by which a server's live corpus answers as its default tenant.
func NewTenant(name string, sum *core.Summary) *Tenant {
	return &Tenant{Name: name, Summary: sum, Shards: 1}
}

// NewShardedTenant assembles a tenant over explicit shards, scattering
// estimates through a Gather front end.
func NewShardedTenant(name string, shards []Shard) (*Tenant, error) {
	g, err := NewGather(shards)
	if err != nil {
		return nil, err
	}
	sum, err := g.Summary()
	if err != nil {
		return nil, err
	}
	return &Tenant{Name: name, Summary: sum, Gather: g, Shards: len(shards)}, nil
}

// LoadTenant loads a tenant's read-only snapshots from its directory
// under the fleet root. The layout is one of:
//
//	<dir>/summary.tlat        single summary
//	<dir>/shard-NNNN.tlat...  one snapshot per shard (sharded tenant)
//
// Every snapshot loads through core.OpenSnapshotFile, which detects the
// format by magic and serves both from the compressed store: TLAT files
// decode onto the heap, TLCZ files open memory-mapped where supported —
// the shard writer keeps the .tlat name either way. All shards of a tenant intern labels into one shared
// dictionary, so canonical keys agree across shard stores and the
// combined view sums them correctly.
func LoadTenant(dir, name string) (*Tenant, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if sumPath := filepath.Join(dir, SummaryFile); fileExists(sumPath) {
		sum, err := core.OpenSnapshotFile(sumPath, labeltree.NewDict())
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: %w", name, err)
		}
		return &Tenant{Name: name, Summary: sum, Shards: 1}, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	files := shardFiles(names)
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: %q has no summary.tlat or shard snapshots", ErrUnknownTenant, name)
	}
	dict := labeltree.NewDict()
	shards := make([]Shard, len(files))
	for i, fn := range files {
		sum, err := core.OpenSnapshotFile(filepath.Join(dir, fn), dict)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q shard %s: %w", name, fn, err)
		}
		shards[i] = Shard{Name: fn, Summary: sum}
	}
	return NewShardedTenant(name, shards)
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

// ResidentBytes reports the bytes the tenant's backend keeps resident —
// the figure the registry's byte-budget admission meters.
func (t *Tenant) ResidentBytes() int {
	if t.Summary == nil {
		return 0
	}
	return t.Summary.ResidentBytes()
}

// StoreKind names the tenant's backing store ("shards", "compressed",
// or "map").
func (t *Tenant) StoreKind() string {
	if t.Summary == nil {
		return ""
	}
	return t.Summary.StoreKind()
}
