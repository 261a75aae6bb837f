package lattice_test

import (
	"bytes"
	"math/rand"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
)

// randomSummary builds a summary of random patterns, optionally pruned.
func randomSummary(t testing.TB, seed int64, n int) (*lattice.Summary, *labeltree.Dict) {
	t.Helper()
	d, alphabet := treetest.Alphabet(5)
	rng := rand.New(rand.NewSource(seed))
	s := lattice.New(4, d)
	for i := 0; i < n; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		if err := s.Add(p, int64(rng.Intn(1000)+1)); err != nil {
			t.Fatal(err)
		}
	}
	return s, d
}

// freeze takes the read-only snapshot of s the way replicas load one:
// serialized as TLAT and streamed back through ReadFrozen against s's
// own dictionary, so keys stay comparable with s's.
func freeze(t testing.TB, s *lattice.Summary) *lattice.Compressed {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := lattice.ReadFrozen(&buf, s.Dict())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFreezeMatchesSummary(t *testing.T) {
	s, _ := randomSummary(t, 17, 120)
	f := freeze(t, s)
	assertCompressedMatches(t, s, f)
	// Absent patterns miss in both backends.
	rng := rand.New(rand.NewSource(99))
	_, alphabet := treetest.Alphabet(5)
	for i := 0; i < 50; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		_, inMap := s.Count(p)
		_, inFrozen := f.Count(p)
		if inMap != inFrozen {
			t.Fatalf("presence diverges for %x: map=%v frozen=%v", p.Key(), inMap, inFrozen)
		}
	}
}

func TestFreezePreservesPrunedFlag(t *testing.T) {
	s, _ := randomSummary(t, 23, 60)
	pruned := s.Filter(func(e lattice.Entry) bool { return e.Pattern.Size() < 3 })
	f := freeze(t, pruned)
	if !f.Pruned() {
		t.Fatal("pruned flag lost in ReadFrozen")
	}
	assertCompressedMatches(t, pruned, f)
}

// TestFreezeIsSnapshot: unlike a zero-copy TLCZ open, a ReadFrozen store
// keeps no reference to its input, so clobbering the serialized bytes
// after the load changes no count.
func TestFreezeIsSnapshot(t *testing.T) {
	s, _ := randomSummary(t, 29, 60)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f, err := lattice.ReadFrozen(bytes.NewReader(data), s.Dict())
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	assertCompressedMatches(t, s, f)
}

func TestReadFrozenMatchesRead(t *testing.T) {
	s, _ := randomSummary(t, 31, 150)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Load both backends into a fresh dictionary with shifted IDs so the
	// comparison exercises label remapping too.
	d2 := labeltree.NewDict()
	d2.Intern("unrelated")
	viaMap, err := lattice.Read(bytes.NewReader(data), d2)
	if err != nil {
		t.Fatal(err)
	}
	d3 := labeltree.NewDict()
	d3.Intern("unrelated")
	viaFrozen, err := lattice.ReadFrozen(bytes.NewReader(data), d3)
	if err != nil {
		t.Fatal(err)
	}
	assertCompressedMatches(t, viaMap, viaFrozen)
}

func TestFrozenEntriesMatchSummary(t *testing.T) {
	s, _ := randomSummary(t, 41, 80)
	f := freeze(t, s)
	for _, size := range []int{0, 1, 2, 3, 4} {
		want, got := s.Entries(size), f.Entries(size)
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

// TestFrozenDifferentialMined: for every pattern the miner enumerates on
// the example corpora, the TLAT-loaded store must return exactly the
// map-backed count, both for a complete and for a pruned summary, and
// must be the same store Compress builds from the map.
func TestFrozenDifferentialMined(t *testing.T) {
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
			variants := map[string]*lattice.Summary{
				"complete": sum,
				"pruned":   sum.Filter(func(e lattice.Entry) bool { return e.Count > 2 || e.Pattern.Size() <= 2 }),
			}
			for name, s := range variants {
				loaded := freeze(t, s)
				if built := lattice.Compress(s); loaded.ResidentBytes() != built.ResidentBytes() {
					t.Errorf("%s: TLAT-loaded store resident %d B, Compress %d B", name, loaded.ResidentBytes(), built.ResidentBytes())
				}
				// Probe with every pattern of the complete lattice so the
				// pruned variant also exercises misses.
				for _, e := range sum.Entries(0) {
					key := e.Pattern.Key()
					wantC, wantOK := s.CountKey(key)
					if gotC, gotOK := loaded.CountKey(key); gotC != wantC || gotOK != wantOK {
						t.Fatalf("%s: CountKey(%x) = %d,%v want %d,%v", name, key, gotC, gotOK, wantC, wantOK)
					}
				}
			}
		})
	}
}

// TestFrozenDuplicateEntries pins last-wins semantics on hand-crafted
// serialized input holding the same pattern twice, with another entry
// between the two: Read and ReadFrozen must agree on the surviving
// count, the entry count and the accounted size.
func TestFrozenDuplicateEntries(t *testing.T) {
	// magic, version, K=2, not pruned, labels "a" and "b", then the
	// single-node patterns a:7, b:3, a:9.
	var buf bytes.Buffer
	buf.WriteString("TLAT")
	buf.WriteByte(1)           // version
	buf.WriteByte(2)           // K
	buf.WriteByte(0)           // pruned
	buf.WriteByte(2)           // two labels
	buf.WriteByte(1)           // len("a")
	buf.WriteString("a")       //
	buf.WriteByte(1)           // len("b")
	buf.WriteString("b")       //
	buf.WriteByte(3)           // three entries
	buf.Write([]byte{1, 0, 7}) // size=1, label 0, count 7
	buf.Write([]byte{1, 1, 3}) // size=1, label 1, count 3
	buf.Write([]byte{1, 0, 9}) // size=1, label 0, count 9
	data := buf.Bytes()

	viaMap, err := lattice.Read(bytes.NewReader(data), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	viaFrozen, err := lattice.ReadFrozen(bytes.NewReader(data), labeltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if viaMap.Len() != 2 || viaFrozen.Len() != 2 {
		t.Fatalf("Len = %d (map) / %d (frozen), want 2", viaMap.Len(), viaFrozen.Len())
	}
	if viaMap.SizeBytes() != viaFrozen.SizeBytes() {
		t.Fatalf("SizeBytes diverges: %d vs %d", viaMap.SizeBytes(), viaFrozen.SizeBytes())
	}
	for name, want := range map[string]int64{"a": 9, "b": 3} {
		p := labeltree.SingleNode(viaFrozen.Dict().Intern(name))
		if got, _ := viaFrozen.Count(p); got != want {
			t.Fatalf("frozen count of %s = %d, want %d", name, got, want)
		}
	}
}

func TestFrozenEmpty(t *testing.T) {
	d := labeltree.NewDict()
	f := freeze(t, lattice.New(3, d))
	if f.Len() != 0 || f.SizeBytes() != 0 {
		t.Fatalf("empty frozen: len=%d bytes=%d", f.Len(), f.SizeBytes())
	}
	if _, ok := f.Count(labeltree.SingleNode(d.Intern("a"))); ok {
		t.Fatal("empty frozen reported a hit")
	}
}

// FuzzFrozenLoad: ReadFrozen never panics on arbitrary bytes, and it
// accepts exactly the inputs Read accepts — when both succeed they agree
// on every header field and every count, duplicate keys included.
func FuzzFrozenLoad(f *testing.F) {
	seed, _ := randomSummary(f, 61, 40)
	var buf bytes.Buffer
	if _, err := seed.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TLAT"))
	f.Add([]byte("TLAT\x01\x02\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		viaFrozen, errF := lattice.ReadFrozen(bytes.NewReader(data), labeltree.NewDict())
		viaMap, errM := lattice.Read(bytes.NewReader(data), labeltree.NewDict())
		if (errF == nil) != (errM == nil) {
			t.Fatalf("loaders disagree: frozen err=%v, map err=%v", errF, errM)
		}
		if errF != nil {
			return
		}
		if viaFrozen.K() != viaMap.K() || viaFrozen.Len() != viaMap.Len() ||
			viaFrozen.Pruned() != viaMap.Pruned() || viaFrozen.SizeBytes() != viaMap.SizeBytes() {
			t.Fatal("loaders disagree on header fields")
		}
		for _, e := range viaMap.Entries(0) {
			key := e.Pattern.Key()
			got, ok := viaFrozen.CountKey(key)
			if !ok || got != e.Count {
				t.Fatalf("CountKey(%x) = %d,%v; map loader has %d", key, got, ok, e.Count)
			}
		}
	})
}
