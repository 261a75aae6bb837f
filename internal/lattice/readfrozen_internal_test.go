package lattice

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"treelattice/internal/labeltree"
)

// TestReadFrozenArenaGuard covers ReadFrozen's 4GiB size guards by
// lowering the limit between the two sizes it checks: the loader must
// refuse a key arena past the limit even when the front-coded block
// section would fit, and a block section past it even when the arena
// fits, and report the typed sentinel, not a bare error or a panic.
func TestReadFrozenArenaGuard(t *testing.T) {
	encode := func(s *Summary) (data []byte, arena, blocks int) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, e := range s.Entries(0) {
			arena += len(e.Pattern.Key())
		}
		return buf.Bytes(), arena, len(Compress(s).blocks)
	}

	// Paths a/b/c/x share long key prefixes, so front-coding makes the
	// block section smaller than the arena of full keys.
	d := labeltree.NewDict()
	shared := New(4, d)
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	for i := 0; i < 50; i++ {
		if err := shared.Add(labeltree.PathPattern(a, b, c, d.Intern(fmt.Sprintf("x%d", i))), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct single-node keys share nothing, so the per-entry header
	// and count make the block section larger than the arena.
	d = labeltree.NewDict()
	distinct := New(3, d)
	for _, name := range []string{"aaa", "bbb", "ccc"} {
		if err := distinct.Add(labeltree.SingleNode(d.Intern(name)), 1); err != nil {
			t.Fatal(err)
		}
	}

	old := snapshotLimit
	defer func() { snapshotLimit = old }()
	for name, s := range map[string]*Summary{"arena": shared, "blocks": distinct} {
		data, arena, blocks := encode(s)
		limit := blocks // the arena overflows, the blocks fit
		if name == "blocks" {
			limit = arena // the arena fits, the blocks overflow
		}
		if lo, hi := min(arena, blocks), max(arena, blocks); limit != lo || lo == hi {
			t.Fatalf("%s: arena %d B, blocks %d B: the limit must fall between them", name, arena, blocks)
		}
		snapshotLimit = limit
		if _, err := ReadFrozen(bytes.NewReader(data), s.Dict()); !errors.Is(err, ErrSnapshotTooLarge) {
			t.Fatalf("%s guard: ReadFrozen with limit %d (arena %d B, blocks %d B): err = %v, want ErrSnapshotTooLarge",
				name, limit, arena, blocks, err)
		}
		snapshotLimit = old
		if _, err := ReadFrozen(bytes.NewReader(data), s.Dict()); err != nil {
			t.Fatalf("%s: ReadFrozen under the real limit: %v", name, err)
		}
	}
}
