package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"treelattice/internal/corpus"
	"treelattice/internal/fleet"
	"treelattice/internal/fsx"
)

// runShard splits a corpus into N shard summaries and writes one
// snapshot file per shard into a tenant directory, ready for the fleet
// registry (`treelattice serve -fleet`). Document→shard assignment is
// deterministic (FNV over the document name), so re-sharding the same
// corpus at the same N reproduces the same files, and the shards
// combined by the scatter-gather front end answer bit-identically to
// the corpus's own merged summary.
func runShard(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	dir := fs.String("corpus", "", "corpus directory to shard")
	out := fs.String("out", "", "output tenant directory (one snapshot file per shard)")
	n := fs.Int("n", 4, "number of shards")
	workers := fs.Int("workers", 0, "build parallelism (0 = all CPUs)")
	compress := fs.Bool("compress", false,
		"write compressed (TLCZ) snapshots instead of TLAT; loaders detect the format by magic")
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return fmt.Errorf("shard: -corpus and -out are required")
	}
	if err := fleet.ValidateName(filepath.Base(*out)); err != nil {
		return fmt.Errorf("shard: output directory name must be a valid tenant name: %w", err)
	}
	c, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	sums, err := c.BuildShardSummaries(context.Background(), *n, *workers)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for i, sum := range sums {
		name := fleet.ShardFile(i)
		if *n == 1 {
			name = fleet.SummaryFile
		}
		write := sum.WriteTo
		if *compress {
			write = sum.WriteCompressed
		}
		err := fsx.WriteFileAtomic(filepath.Join(*out, name), func(w io.Writer) error {
			_, werr := write(w)
			return werr
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (patterns=%d bytes=%d)\n", name, sum.Patterns(), sum.SizeBytes())
	}
	fmt.Fprintf(stdout, "sharded %d documents into %d shards in %s\n", len(c.Docs()), *n, *out)
	return nil
}
