package lattice_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
	"treelattice/internal/workload"
)

// assertCompressedMatches checks that c answers exactly like s for every
// stored entry, including the header fields the estimators branch on.
func assertCompressedMatches(t *testing.T, s *lattice.Summary, c *lattice.Compressed) {
	t.Helper()
	if c.K() != s.K() || c.Len() != s.Len() || c.Pruned() != s.Pruned() || c.SizeBytes() != s.SizeBytes() {
		t.Fatalf("compressed header mismatch: K=%d/%d len=%d/%d pruned=%v/%v bytes=%d/%d",
			c.K(), s.K(), c.Len(), s.Len(), c.Pruned(), s.Pruned(), c.SizeBytes(), s.SizeBytes())
	}
	for _, e := range s.Entries(0) {
		key := e.Pattern.Key()
		got, ok := c.CountKey(key)
		if !ok || got != e.Count {
			t.Fatalf("CountKey(%x) = %d,%v; summary has %d", key, got, ok, e.Count)
		}
		if got, ok := c.Count(e.Pattern); !ok || got != e.Count {
			t.Fatalf("Count = %d,%v; summary has %d", got, ok, e.Count)
		}
	}
}

// remapPattern rebuilds p, keyed against from, in the to dictionary.
func remapPattern(t testing.TB, p labeltree.Pattern, from, to *labeltree.Dict) labeltree.Pattern {
	t.Helper()
	n := p.Size()
	labels := make([]labeltree.LabelID, n)
	parents := make([]int32, n)
	parents[0] = -1
	for i := int32(0); int(i) < n; i++ {
		labels[i] = to.Intern(from.Name(p.Label(i)))
		if i > 0 {
			parents[i] = p.Parent(i)
		}
	}
	np, err := labeltree.NewPattern(labels, parents)
	if err != nil {
		t.Fatalf("remapping pattern: %v", err)
	}
	return np
}

func TestCompressMatchesSummary(t *testing.T) {
	s, _ := randomSummary(t, 17, 120)
	c := lattice.Compress(s)
	assertCompressedMatches(t, s, c)
	// Absent patterns miss in both backends.
	rng := rand.New(rand.NewSource(99))
	_, alphabet := treetest.Alphabet(5)
	for i := 0; i < 50; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		_, inMap := s.Count(p)
		_, inComp := c.Count(p)
		if inMap != inComp {
			t.Fatalf("presence diverges for %x: map=%v compressed=%v", p.Key(), inMap, inComp)
		}
	}
}

func TestCompressIsSnapshot(t *testing.T) {
	d := labeltree.NewDict()
	s := lattice.New(3, d)
	p := labeltree.SingleNode(d.Intern("a"))
	if err := s.Add(p, 5); err != nil {
		t.Fatal(err)
	}
	c := lattice.Compress(s)
	if err := s.Add(p, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Count(p); got != 5 {
		t.Fatalf("snapshot saw later mutation: count = %d, want 5", got)
	}
}

func TestCompressedEntriesMatchSummary(t *testing.T) {
	s, _ := randomSummary(t, 41, 80)
	c := lattice.Compress(s)
	for _, size := range []int{0, 1, 2, 3, 4} {
		want, got := s.Entries(size), c.Entries(size)
		if len(want) != len(got) {
			t.Fatalf("Entries(%d): %d vs %d entries", size, len(want), len(got))
		}
		for i := range want {
			if want[i].Pattern.Key() != got[i].Pattern.Key() || want[i].Count != got[i].Count {
				t.Fatalf("Entries(%d)[%d] diverges", size, i)
			}
		}
	}
}

// TestOpenCompressedZeroCopyAndRebind loads a TLCZ snapshot both into a
// fresh dictionary (file-local label IDs reproduced — the zero-copy
// serving path) and into a dictionary whose IDs are shifted (forcing the
// rebind path), and holds both bit-identical to the TLAT loaders on the
// same summary.
func TestOpenCompressedZeroCopyAndRebind(t *testing.T) {
	s, _ := randomSummary(t, 31, 150)
	var tlat, tlcz bytes.Buffer
	if _, err := s.WriteTo(&tlat); err != nil {
		t.Fatal(err)
	}
	if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
		t.Fatal(err)
	}

	// Fresh dictionaries: TLAT's and TLCZ's label tables are both in
	// first-use order over the canonical entries, so both loads assign
	// identical IDs and keys compare directly.
	viaMap, err := lattice.Read(bytes.NewReader(tlat.Bytes()), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	zeroCopy, err := lattice.OpenCompressed(tlcz.Bytes(), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	assertCompressedMatches(t, viaMap, zeroCopy)

	// Shifted dictionaries exercise the rebind path the same way.
	dMap := labeltree.NewDict()
	dMap.Intern("unrelated")
	shiftedMap, err := lattice.Read(bytes.NewReader(tlat.Bytes()), dMap)
	if err != nil {
		t.Fatal(err)
	}
	dComp := labeltree.NewDict()
	dComp.Intern("unrelated")
	rebound, err := lattice.OpenCompressed(tlcz.Bytes(), dComp)
	if err != nil {
		t.Fatal(err)
	}
	assertCompressedMatches(t, shiftedMap, rebound)
}

func TestWriteCompressedDeterministic(t *testing.T) {
	s, _ := randomSummary(t, 47, 90)
	var a, b bytes.Buffer
	if _, err := lattice.WriteCompressed(&a, s); err != nil {
		t.Fatal(err)
	}
	if _, err := lattice.WriteCompressed(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteCompressed is not deterministic")
	}
}

// TestCompressedDifferentialMined: on every generator profile, complete
// and pruned, the compressed backend — built in memory, loaded from TLAT,
// opened zero-copy from TLCZ bytes, and opened from an mmap'ed file —
// answers exactly like the map backend for every mined pattern, and the
// decomposition estimators over it return bit-identical estimates
// (math.Float64bits) for a positive workload of sizes 5–7, which the
// K=4 lattice answers only by decomposing.
func TestCompressedDifferentialMined(t *testing.T) {
	dir := t.TempDir()
	for _, profile := range datagen.AllProfiles() {
		t.Run(string(profile), func(t *testing.T) {
			dict := labeltree.NewDict()
			tree, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 800, Seed: 7}, dict)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := mine.Mine(tree, 4, mine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			work, err := workload.Positive(tree, workload.Options{Sizes: []int{5, 6, 7}, PerSize: 6, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if len(work[5]) == 0 || len(work[7]) == 0 {
				t.Fatalf("workload too small: %d/%d/%d queries", len(work[5]), len(work[6]), len(work[7]))
			}
			variants := map[string]*lattice.Summary{
				"complete": sum,
				"pruned":   sum.Filter(func(e lattice.Entry) bool { return e.Count > 2 || e.Pattern.Size() <= 2 }),
			}
			for name, s := range variants {
				inMemory := lattice.Compress(s)
				tlat := freeze(t, s)

				var tlcz bytes.Buffer
				if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
					t.Fatal(err)
				}
				fileDict := labeltree.NewDict()
				opened, err := lattice.OpenCompressed(tlcz.Bytes(), fileDict)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, string(profile)+"-"+name+".tlat")
				if err := os.WriteFile(path, tlcz.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				mapDict := labeltree.NewDict()
				mapped, err := lattice.OpenCompressedFile(path, mapDict)
				if err != nil {
					t.Fatal(err)
				}

				// Probe with every pattern of the complete lattice so the
				// pruned variant also exercises misses.
				for _, e := range sum.Entries(0) {
					key := e.Pattern.Key()
					wantC, wantOK := s.CountKey(key)
					if gotC, gotOK := tlat.CountKey(key); gotC != wantC || gotOK != wantOK {
						t.Fatalf("%s/tlat: CountKey(%x) = %d,%v want %d,%v", name, key, gotC, gotOK, wantC, wantOK)
					}
					if gotC, gotOK := inMemory.CountKey(key); gotC != wantC || gotOK != wantOK {
						t.Fatalf("%s/compress: CountKey(%x) = %d,%v want %d,%v", name, key, gotC, gotOK, wantC, wantOK)
					}
					fileKey := remapPattern(t, e.Pattern, dict, fileDict).Key()
					if gotC, gotOK := opened.CountKey(fileKey); gotC != wantC || gotOK != wantOK {
						t.Fatalf("%s/open: CountKey(%x) = %d,%v want %d,%v", name, fileKey, gotC, gotOK, wantC, wantOK)
					}
					mapKey := remapPattern(t, e.Pattern, dict, mapDict).Key()
					if gotC, gotOK := mapped.CountKey(mapKey); gotC != wantC || gotOK != wantOK {
						t.Fatalf("%s/mmap: CountKey(%x) = %d,%v want %d,%v", name, mapKey, gotC, gotOK, wantC, wantOK)
					}
				}
				stores := []struct {
					name  string
					store estimate.Store
					dict  *labeltree.Dict
				}{
					{"compress", inMemory, dict}, {"tlat", tlat, dict},
					{"open", opened, fileDict}, {"mmap", mapped, mapDict},
				}
				for _, size := range []int{5, 6, 7} {
					for _, wq := range work[size] {
						for _, est := range []struct {
							name string
							of   func(estimate.Store) estimate.Estimator
						}{
							{"recursive", func(st estimate.Store) estimate.Estimator { return estimate.NewRecursive(st, false) }},
							{"recursive+voting", func(st estimate.Store) estimate.Estimator { return estimate.NewRecursive(st, true) }},
							{"fix-sized", func(st estimate.Store) estimate.Estimator { return estimate.NewFixSized(st) }},
						} {
							want := est.of(s).Estimate(wq.Pattern)
							for _, st := range stores {
								q := remapPattern(t, wq.Pattern, dict, st.dict)
								if got := est.of(st.store).Estimate(q); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s/%s/%s size %d: estimate %v, map %v", name, st.name, est.name, size, got, want)
								}
							}
						}
					}
				}
				if err := mapped.Close(); err != nil {
					t.Fatal(err)
				}
				if _, ok := mapped.CountKey(sum.Entries(0)[0].Pattern.Key()); ok {
					t.Fatal("closed store reported a hit")
				}
			}
		})
	}
}

// TestOpenCompressedFileResident pins the zero-copy property: a fresh
// dictionary open keeps exactly the snapshot file resident.
func TestOpenCompressedFileResident(t *testing.T) {
	s, _ := randomSummary(t, 53, 200)
	var tlcz bytes.Buffer
	if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "summary.tlat")
	if err := os.WriteFile(path, tlcz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := lattice.OpenCompressedFile(path, labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A zero-copy open keeps the whole snapshot resident plus the decoded
	// fence words (8 bytes per block) and the 257-slot first-byte jump
	// table the block search probes natively.
	if got := c.ResidentBytes(); got <= tlcz.Len() || got > tlcz.Len()+8*(c.Len()+7)+2*257 {
		t.Fatalf("ResidentBytes = %d, want snapshot size %d plus decoded search index", got, tlcz.Len())
	}
}

func TestCompressedEmpty(t *testing.T) {
	d := labeltree.NewDict()
	s := lattice.New(3, d)
	c := lattice.Compress(s)
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatalf("empty compressed: len=%d bytes=%d", c.Len(), c.SizeBytes())
	}
	if _, ok := c.Count(labeltree.SingleNode(d.Intern("a"))); ok {
		t.Fatal("empty compressed reported a hit")
	}
	var tlcz bytes.Buffer
	if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
		t.Fatal(err)
	}
	rt, err := lattice.OpenCompressed(tlcz.Bytes(), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 0 {
		t.Fatalf("round-tripped empty store has %d entries", rt.Len())
	}
}

func TestCompressedLookupAllocs(t *testing.T) {
	s, _ := randomSummary(t, 53, 100)
	var tlcz bytes.Buffer
	if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
		t.Fatal(err)
	}
	opened, err := lattice.OpenCompressed(tlcz.Bytes(), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*lattice.Compressed{
		"compress": lattice.Compress(s),
		"opened":   opened,
	} {
		keys := make([]labeltree.Key, 0, c.Len())
		for _, e := range c.Entries(0) {
			keys = append(keys, e.Pattern.Key())
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.CountKey(keys[i%len(keys)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: CountKey allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestOpenCompressedRejectsCorruption flips bytes across the snapshot
// and requires every corruption to be caught by the checksum or the
// structural validator — never served.
func TestOpenCompressedRejectsCorruption(t *testing.T) {
	s, _ := randomSummary(t, 59, 80)
	var tlcz bytes.Buffer
	if _, err := lattice.WriteCompressed(&tlcz, s); err != nil {
		t.Fatal(err)
	}
	clean := tlcz.Bytes()
	if _, err := lattice.OpenCompressed(clean, labeltree.NewDict()); err != nil {
		t.Fatal(err)
	}
	for pos := 64; pos < len(clean); pos += 97 {
		data := append([]byte(nil), clean...)
		data[pos] ^= 0x40
		if _, err := lattice.OpenCompressed(data, labeltree.NewDict()); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	for _, n := range []int{0, 3, 63, len(clean) - 1} {
		if _, err := lattice.OpenCompressed(clean[:n], labeltree.NewDict()); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// FuzzCompressedLoad: OpenCompressed never panics on arbitrary bytes,
// and every TLAT input the existing loaders accept survives the
// round trip through the compressed form with bit-identical counts
// against ReadFrozen on the same serialized bytes.
func FuzzCompressedLoad(f *testing.F) {
	seed, _ := randomSummary(f, 61, 40)
	var tlat, tlcz bytes.Buffer
	if _, err := seed.WriteTo(&tlat); err != nil {
		f.Fatal(err)
	}
	if _, err := lattice.WriteCompressed(&tlcz, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(tlat.Bytes())
	f.Add(tlcz.Bytes())
	f.Add([]byte("TLCZ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must never panic the opener; a store it does
		// accept must survive probing.
		if c, err := lattice.OpenCompressed(data, labeltree.NewDict()); err == nil {
			c.CountKey(labeltree.Key("\x01\x00"))
			for _, e := range c.Entries(0) {
				if _, ok := c.CountKey(e.Pattern.Key()); !ok {
					t.Fatal("accepted store misses its own entry")
				}
			}
		}
		// Differential leg: TLAT-valid bytes round-trip through TLCZ.
		mapDict := labeltree.NewDict()
		s, err := lattice.Read(bytes.NewReader(data), mapDict)
		if err != nil {
			return
		}
		fz, err := lattice.ReadFrozen(bytes.NewReader(data), labeltree.NewDict())
		if err != nil {
			t.Fatalf("Read accepted input ReadFrozen rejects: %v", err)
		}
		var buf bytes.Buffer
		if _, err := lattice.WriteCompressed(&buf, s); err != nil {
			t.Fatalf("WriteCompressed on loaded summary: %v", err)
		}
		compDict := labeltree.NewDict()
		c, err := lattice.OpenCompressed(buf.Bytes(), compDict)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if c.K() != s.K() || c.Len() != s.Len() || c.Pruned() != s.Pruned() || c.SizeBytes() != s.SizeBytes() {
			t.Fatal("round trip disagrees on header fields")
		}
		for _, e := range s.Entries(0) {
			key := e.Pattern.Key()
			wantC, wantOK := fz.CountKey(key) // fresh dict: same IDs as s
			if wantC != e.Count || !wantOK {
				t.Fatalf("TLAT loader diverges from map loader on %x", key)
			}
			ck := remapPattern(t, e.Pattern, mapDict, compDict).Key()
			if gotC, gotOK := c.CountKey(ck); gotC != wantC || gotOK != wantOK {
				t.Fatalf("compressed CountKey(%x) = %d,%v want %d,%v", ck, gotC, gotOK, wantC, wantOK)
			}
		}
	})
}
