package lattice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"treelattice/internal/labeltree"
)

// Compressed is the immutable, succinct read-only snapshot of a
// K-lattice: every read-only load and every ingest base serves from it.
// Canonical keys are stored sorted and front-coded (each key records
// only the bytes after its longest common prefix with its predecessor)
// in blocks of compressedBlockLen entries; entry headers pack lcp and
// suffix length into one byte in the common case; counts are inline
// uvarints; a small per-block fence index (first key of every block)
// plus a 257-slot first-byte jump table lets CountKey do a short binary
// search and a bounded in-block scan. There is no per-entry offset array
// and no hash table, so resident bytes stay close to the key bytes
// themselves.
//
// A Compressed is built from a populated *Summary (Compress), streamed
// from the TLAT interchange format (ReadFrozen), loaded from the TLCZ
// snapshot format (OpenCompressed / ReadCompressed), or served straight
// from an mmap'ed snapshot file (OpenCompressedFile). It is safe for
// concurrent use by any number of readers.
type Compressed struct {
	k      int
	dict   *labeltree.Dict
	pruned bool
	n      int // number of entries

	blockLen int      // entries per block (last block may hold fewer)
	fences   []uint64 // per block: first 8 key bytes of the block's first key, big-endian packed
	jump     []uint16 // 257 slots: first block whose fence's top byte is ≥ the slot index; nil when it would not pay
	offs     []uint32 // nBlocks+1: block start offsets into blocks, closed by a len(blocks) sentinel (empty when no entries)
	blocks   []byte   // front-coded entry data

	sizeBytes int // accounted storage, matching Summary.SizeBytes

	// backing is the whole snapshot the block data is a view into when
	// the store was opened zero-copy from a file or byte slice (fences,
	// jump, and offs are decoded to native words either way); nil for
	// heap-assembled stores. unmap releases an mmap'ed backing.
	backing []byte
	unmap   func() error
}

// ErrSnapshotTooLarge reports a snapshot whose flat storage would exceed
// what the u32 offsets of the block section can address. Match it with
// errors.Is.
var ErrSnapshotTooLarge = errors.New("lattice: snapshot exceeds 4GiB addressable layout")

// snapshotLimit bounds the flat storage a store may assemble: the TLAT
// key arena ReadFrozen streams into and the block section every build
// front-codes into. A variable only so tests can lower it and cover the
// guards without materializing 4GiB of keys.
var snapshotLimit = math.MaxUint32

// compressedBlockLen is the front-coding restart interval. 8 bounds the
// lookup scan to a handful of entries while keeping the fence/offset
// overhead near a byte and a half per entry; lower it and lookups speed
// up but fences grow.
const compressedBlockLen = 8

// K returns the lattice level: the maximum stored pattern size.
func (c *Compressed) K() int { return c.k }

// Dict returns the label dictionary the snapshot is keyed against.
func (c *Compressed) Dict() *labeltree.Dict { return c.dict }

// Pruned reports whether the summary this snapshot was taken from had
// entries removed by Filter.
func (c *Compressed) Pruned() bool { return c.pruned }

// Len reports the number of stored patterns.
func (c *Compressed) Len() int { return c.n }

// SizeBytes returns the accounted storage size (8 bytes of count plus 5
// bytes per node — the same accounting as Summary, so both backends stay
// interchangeable in size-sensitive callers).
func (c *Compressed) SizeBytes() int { return c.sizeBytes }

// ResidentBytes reports the actual bytes this snapshot keeps resident:
// the whole backing file for zero-copy opens (every section is a view
// into it) plus the decoded fence words and jump table, or the
// assembled sections for heap-backed stores. This is the number
// byte-budget residency accounting should charge.
func (c *Compressed) ResidentBytes() int {
	if c.backing != nil {
		return len(c.backing) + 8*len(c.fences) + 2*len(c.jump) + 4*len(c.offs)
	}
	return 8*len(c.fences) + 2*len(c.jump) + 4*len(c.offs) + len(c.blocks)
}

// Count returns the stored count for p and whether p is present.
func (c *Compressed) Count(p labeltree.Pattern) (int64, bool) {
	return c.CountKey(p.Key())
}

func (c *Compressed) nBlocks() int { return len(c.fences) }

func (c *Compressed) blockOff(b int) int { return int(c.offs[b]) }

// blockData returns block b's front-coded byte run; the sentinel in
// offs makes the last block no different from the rest.
func (c *Compressed) blockData(b int) []byte {
	return c.blocks[c.offs[b]:c.offs[b+1]]
}

// CountKey is Count for a precomputed canonical key: narrow to the run
// of blocks whose fences start with the key's first byte (jump table),
// binary-search that run for the last block whose first key is ≤ key,
// then run a front-coded scan inside that block. It performs no
// allocations.
//
// The scan exploits exact front-coding lcps to skip byte comparisons:
// with m = lcp(key, previous entry) and every previous entry < key, an
// entry whose stored lcp exceeds m diverges from key exactly where its
// predecessor did (still smaller, skip without touching its bytes), one
// whose lcp is below m starts with a byte already known to be greater
// (the keys are sorted — terminate), and only an entry whose lcp equals
// m needs its suffix compared.
func (c *Compressed) CountKey(key labeltree.Key) (int64, bool) {
	nb := c.nBlocks()
	if nb == 0 {
		return 0, false
	}
	s := string(key)
	p8 := prefix8(s)
	fences := c.fences
	// Search for the first block whose fence is > p8. The jump table
	// bounds it to the blocks sharing s's first byte: everything below
	// that window has a smaller first byte (fence ≤ p8), everything
	// above a larger one (fence > p8). Windows are typically zero to two
	// blocks, so the binary search does at most a couple of probes.
	lo, hi := 0, nb
	if c.jump != nil {
		t := p8 >> 56
		lo, hi = int(c.jump[t]), int(c.jump[t+1])
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fences[mid] <= p8 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := lo - 1
	if b < 0 {
		return 0, false // key sorts before every stored key
	}
	// Fence ties: blocks whose first keys share s's 8-byte prefix carry
	// equal fences, so b can overshoot among them. Find the tied run
	// (cheap u64 compares) and binary-search it on full first-key
	// compares; runs are almost always length 1.
	if fences[b] == p8 {
		lo := b
		for lo > 0 && fences[lo-1] == p8 {
			lo--
		}
		for lo < b {
			mid := int(uint(lo+b+1) >> 1)
			if c.cmpFirstKey(mid, s) <= 0 {
				lo = mid
			} else {
				b = mid - 1
			}
		}
		if c.cmpFirstKey(b, s) > 0 {
			// The whole run starts past s; the answer block precedes it.
			if b == 0 {
				return 0, false
			}
			b--
		}
	}
	return c.scanBlock(b, s, p8)
}

// cmpFirstKey compares block b's fully-stored first key against s.
func (c *Compressed) cmpFirstKey(b int, s string) int {
	data := c.blocks[c.blockOff(b):]
	// Restart header: lcp is 0, so the packed byte is just the key length.
	p, klen := 1, int(data[0]&15)
	if data[0] == 0xFF {
		_, n1 := binary.Uvarint(data[p:]) // lcp, always 0 for a block's first entry
		kl, n2 := binary.Uvarint(data[p+n1:])
		p += n1 + n2
		klen = int(kl)
	}
	return cmpBytesString(data[p:p+klen], s)
}

// scanBlock runs the front-coded scan described on CountKey. Entry
// headers decode from one packed byte in the common case; skipped
// entries advance past their count by scanning for the varint
// terminator instead of decoding the value; and the first entry's
// compare is seeded from the fence the block search already touched —
// the leading zero bytes of fence XOR p8 are bytes known equal, so the
// full stored key rarely needs a byte loop at all.
func (c *Compressed) scanBlock(b int, s string, p8 uint64) (int64, bool) {
	data := c.blockData(b)
	seed := 8
	if x := c.fences[b] ^ p8; x != 0 {
		seed = int(uint(bits.LeadingZeros64(x)) >> 3)
	}
	m := 0 // lcp(s, previous entry); every scanned entry so far is < s
	for p := 0; p < len(data); {
		h := data[p]
		p++
		lcp, sl := int(h>>4), int(h&15)
		if h == 0xFF {
			v1, k1 := binary.Uvarint(data[p:])
			if k1 <= 0 {
				return 0, false // unreachable on validated/built data
			}
			p += k1
			v2, k2 := binary.Uvarint(data[p:])
			if k2 <= 0 {
				return 0, false
			}
			p += k2
			lcp, sl = int(v1), int(v2)
		}
		if sl > len(data)-p {
			return 0, false
		}
		if lcp > m {
			// Entry < s: it diverges from s exactly where its predecessor
			// did. Skip suffix and count without reading either.
			p += sl
			for p < len(data) && data[p] >= 0x80 {
				p++
			}
			p++
			continue
		}
		if lcp < m {
			return 0, false // entry > s, and everything after it is larger still
		}
		suf := data[p : p+sl]
		ss := s[m:]
		p += sl
		// Advance j over bytes shared by suf and ss, capped at the
		// shorter side's length n; on exit either j == n or suf[j] and
		// ss[j] are the first differing pair. The fence seed only ever
		// applies to the block's first entry (stored in full, m=0):
		// bytes below it match in the zero-padded u64 views, and any such
		// position below both real lengths — guaranteed once clamped to
		// n — matches in the real bytes too.
		j := seed
		seed = 0
		n := sl
		if len(ss) < n {
			n = len(ss)
		}
		if j > n {
			j = n
		}
		for j < n && suf[j] == ss[j] {
			j++
		}
		if j == len(suf) && j == len(ss) {
			// One- and two-byte counts cover practically every entry;
			// longer varints take the generic decoder.
			if p < len(data) && data[p] < 0x80 {
				return int64(data[p]), true
			}
			if p+1 < len(data) && data[p+1] < 0x80 {
				return int64(data[p]&0x7F) | int64(data[p+1])<<7, true
			}
			cnt, k := binary.Uvarint(data[p:])
			if k <= 0 {
				return 0, false
			}
			return int64(cnt), true
		}
		if j < len(suf) && (j == len(ss) || suf[j] > ss[j]) {
			return 0, false // entry > s
		}
		m += j // entry < s with a longer shared prefix; keep scanning
		for p < len(data) && data[p] >= 0x80 {
			p++
		}
		p++
	}
	return 0, false
}

// Entries returns all entries of the given size in deterministic
// (canonical key) order, decoding patterns from their stored keys.
// size 0 means all sizes. Intended for inspection and tests, not the
// query path.
func (c *Compressed) Entries(size int) []Entry {
	var out []Entry
	var key []byte
	walkBlocks(c.blocks, c.offs[:c.nBlocks()], c.blockLen, c.n, &key, func(k []byte, count uint64) error {
		p, err := labeltree.DecodeKey(labeltree.Key(k))
		if err != nil {
			panic(fmt.Sprintf("lattice: compressed store holds undecodable key: %v", err))
		}
		if size == 0 || p.Size() == size {
			out = append(out, Entry{Pattern: p, Count: int64(count)})
		}
		return nil
	})
	sort.Slice(out, func(a, b int) bool {
		if sa, sb := out[a].Pattern.Size(), out[b].Pattern.Size(); sa != sb {
			return sa < sb
		}
		return out[a].Pattern.Key() < out[b].Pattern.Key()
	})
	return out
}

// Compress builds a succinct snapshot of s. The snapshot shares s's
// dictionary but none of its storage; mutating s afterwards does not
// affect the snapshot. Sorted keys make it deterministic: compressing
// equal summaries yields byte-identical stores.
func Compress(s *Summary) *Compressed {
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	counts := make([]int64, len(keys))
	sizeBytes := 0
	for i, k := range keys {
		e := s.entries[labeltree.Key(k)]
		counts[i] = e.Count
		sizeBytes += 8 + 5*e.Pattern.Size()
	}
	c, err := buildCompressed(keys, counts, compressedBlockLen)
	if err != nil {
		panic(err) // an in-memory summary past 4GiB of front-coded keys
	}
	c.k, c.dict, c.pruned, c.sizeBytes = s.k, s.dict, s.pruned, sizeBytes
	return c
}

// buildCompressed assembles the three sections from sorted distinct
// keys, failing with ErrSnapshotTooLarge when the block section outgrows
// its u32 offsets. Lattice-level fields (k, dict, pruned, sizeBytes) are
// the caller's to fill in.
func buildCompressed(keys []string, counts []int64, blockLen int) (*Compressed, error) {
	c := &Compressed{n: len(keys), blockLen: blockLen}
	var buf [binary.MaxVarintLen64]byte
	uv := func(dst []byte, v uint64) []byte {
		return append(dst, buf[:binary.PutUvarint(buf[:], v)]...)
	}
	tooLarge := func() error {
		return fmt.Errorf("lattice: compressed block section: %w", ErrSnapshotTooLarge)
	}
	prev := ""
	for i, key := range keys {
		if i%blockLen == 0 {
			if len(c.blocks) > snapshotLimit {
				return nil, tooLarge()
			}
			c.offs = append(c.offs, uint32(len(c.blocks)))
			c.fences = append(c.fences, prefix8(key))
			prev = "" // restart point: store the block's first key in full
		}
		l := lcp(prev, key)
		sl := len(key) - l
		// Header: lcp and suffix length nibble-packed into one byte when
		// both fit (the overwhelmingly common case for short canonical
		// keys); 0xFF escapes to two uvarints otherwise.
		if l < 15 && sl < 15 {
			c.blocks = append(c.blocks, byte(l<<4|sl))
		} else {
			c.blocks = append(c.blocks, 0xFF)
			c.blocks = uv(c.blocks, uint64(l))
			c.blocks = uv(c.blocks, uint64(sl))
		}
		c.blocks = append(c.blocks, key[l:]...)
		c.blocks = uv(c.blocks, uint64(counts[i]))
		prev = key
	}
	if len(keys) > 0 {
		if len(c.blocks) > snapshotLimit {
			return nil, tooLarge()
		}
		c.offs = append(c.offs, uint32(len(c.blocks))) // sentinel
	}
	c.jump = buildJump(c.fences)
	return c, nil
}

// buildJump indexes the fences by their leading byte: slot t holds the
// first block whose fence starts with a byte ≥ t (slot 256 closes the
// last range), so a lookup's binary search is confined to the blocks
// sharing its key's first byte. The table is derived from the fences at
// build and open time, never serialized. Tiny stores skip it — the
// fixed 514 bytes would rival the data, and a binary search over a
// handful of fences is already a couple of probes — as do stores past
// 64Ki blocks (far beyond any real summary), which search the full
// fence array instead.
func buildJump(fences []uint64) []uint16 {
	if len(fences) < 16 || len(fences) > 0xFFFF {
		return nil
	}
	j := make([]uint16, 257)
	b := 0
	for t := 0; t <= 256; t++ {
		for b < len(fences) && int(fences[b]>>56) < t {
			b++
		}
		j[t] = uint16(b)
	}
	return j
}

// walkBlocks decodes every entry of a front-coded section in order,
// reconstructing full keys into *keyBuf (reused across entries — fn must
// not retain its argument) and enforcing the structural invariants the
// zero-allocation lookup path depends on: blocks start where the offset
// section says, every block's first entry is stored in full, lcps are
// exact, keys are strictly ascending (across block boundaries too), and
// counts stay in the range the TLAT serializer enforces. It is both the
// open-time validator for untrusted snapshot bytes and the decoder
// behind Entries and the rebind path.
func walkBlocks(blocks []byte, offs []uint32, blockLen, n int, keyBuf *[]byte, fn func(key []byte, count uint64) error) error {
	nb := len(offs)
	key := (*keyBuf)[:0]
	p := 0
	for i := 0; i < n; i++ {
		if i%blockLen == 0 {
			b := i / blockLen
			if b >= nb {
				return fmt.Errorf("lattice: compressed entry %d has no block", i)
			}
			if got := int(offs[b]); got != p {
				return fmt.Errorf("lattice: compressed block %d offset %d, expected %d", b, got, p)
			}
		}
		if p >= len(blocks) {
			return fmt.Errorf("lattice: compressed entry %d malformed", i)
		}
		h := blocks[p]
		p++
		lcpV, sufLen := uint64(h>>4), uint64(h&15)
		if h == 0xFF {
			var n1, n2 int
			lcpV, n1 = binary.Uvarint(blocks[p:])
			p += n1
			sufLen, n2 = binary.Uvarint(blocks[p:])
			p += n2
			if n1 <= 0 || n2 <= 0 {
				return fmt.Errorf("lattice: compressed entry %d malformed", i)
			}
		}
		if sufLen == 0 || sufLen > uint64(len(blocks)-p) {
			return fmt.Errorf("lattice: compressed entry %d malformed", i)
		}
		suf := blocks[p : p+int(sufLen)]
		p += int(sufLen)
		atRestart := i%blockLen == 0
		switch {
		case atRestart && lcpV != 0:
			return fmt.Errorf("lattice: compressed block first entry %d front-coded", i)
		case lcpV > uint64(len(key)):
			return fmt.Errorf("lattice: compressed entry %d lcp %d exceeds previous key", i, lcpV)
		case !atRestart && int(lcpV) < len(key) && suf[0] <= key[lcpV]:
			return fmt.Errorf("lattice: compressed entry %d breaks key order (or inexact lcp)", i)
		case atRestart && i > 0 && bytes.Compare(suf, key) <= 0:
			// The restart entry is stored in full (lcp 0), so it can be
			// order-checked against the previous block's last key directly.
			return fmt.Errorf("lattice: compressed block of entry %d breaks key order", i)
		}
		key = append(key[:int(lcpV)], suf...)
		cnt, n3 := binary.Uvarint(blocks[p:])
		p += n3
		if n3 <= 0 || cnt > 1<<62 {
			return fmt.Errorf("lattice: compressed entry %d count malformed", i)
		}
		if fn != nil {
			if err := fn(key, cnt); err != nil {
				return err
			}
		}
	}
	if p != len(blocks) {
		return fmt.Errorf("lattice: compressed block section has %d trailing bytes", len(blocks)-p)
	}
	if want := (n + blockLen - 1) / blockLen; n > 0 && nb != want {
		return fmt.Errorf("lattice: compressed store has %d blocks, expected %d", nb, want)
	}
	if n == 0 && (nb != 0 || len(blocks) != 0) {
		return fmt.Errorf("lattice: empty compressed store carries data")
	}
	*keyBuf = key
	return nil
}

// prefix8 packs a key's first 8 bytes big-endian, zero-padded, so u64
// comparison orders fences exactly like a bytewise compare of the keys
// they were cut from (ties, including short keys, need a full compare).
// The full-width case is spelled out so the compiler combines it into a
// single 8-byte load.
func prefix8[K ~string | ~[]byte](k K) uint64 {
	if len(k) >= 8 {
		return uint64(k[7]) | uint64(k[6])<<8 | uint64(k[5])<<16 | uint64(k[4])<<24 |
			uint64(k[3])<<32 | uint64(k[2])<<40 | uint64(k[1])<<48 | uint64(k[0])<<56
	}
	var v uint64
	for i := 0; i < len(k); i++ {
		v |= uint64(k[i]) << (56 - 8*i)
	}
	return v
}

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// cmpBytesString is bytes.Compare across the two key representations,
// allocation-free.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) == len(s):
		return 0
	case len(b) < len(s):
		return -1
	}
	return 1
}
