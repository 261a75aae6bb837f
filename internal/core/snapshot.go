package core

import (
	"fmt"
	"io"
	"os"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// This file holds the snapshot-format surface of Summary: serializing
// to and loading from the two on-disk forms (the TLAT interchange
// format, consumed by Read/ReadFrozen, and the compressed TLCZ layout),
// plus the introspection servers use to account for what is resident.
// Every read-only load serves from the same lattice.Compressed store.

// WriteCompressed serializes the summary in the compressed TLCZ form.
// Like WriteTo it needs the map-backed lattice; snapshot-only summaries
// are rejected with ErrFrozenSummary.
func (s *Summary) WriteCompressed(w io.Writer) (int64, error) {
	if s.lat == nil {
		return 0, fmt.Errorf("%w: cannot serialize", ErrFrozenSummary)
	}
	return lattice.WriteCompressed(w, s.lat)
}

// ReadCompressed deserializes a summary written by WriteCompressed,
// interning labels into dict. Like ReadFrozen, the result serves
// estimates but rejects every mutation with ErrFrozenSummary.
func ReadCompressed(r io.Reader, dict *labeltree.Dict) (*Summary, error) {
	c, err := lattice.ReadCompressed(r, dict)
	if err != nil {
		return nil, err
	}
	return &Summary{comp: c, dict: dict}, nil
}

// OpenSnapshotFile loads a read-only summary from path, detecting the
// format by its magic: TLCZ snapshots open through the compressed
// loader (memory-mapped where the platform supports it), TLAT
// snapshots through ReadFrozen, which decodes them into the same
// compressed store on the heap. This is the serving-path loader —
// replicas point it at whatever snapshot the build wrote.
func OpenSnapshotFile(path string, dict *labeltree.Dict) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading snapshot magic from %s: %w", path, err)
	}
	if string(head[:]) == lattice.CompressedMagic {
		f.Close()
		c, err := lattice.OpenCompressedFile(path, dict)
		if err != nil {
			return nil, err
		}
		return &Summary{comp: c, dict: dict}, nil
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadFrozen(f, dict)
}

// kinded is implemented by combining stores that name their own backend
// kind (the delta-merged view); plain shard combination stays "shards".
type kinded interface{ StoreKind() string }

// StoreKind names the backend estimates currently read from: "shards",
// "delta" (epoch view: immutable base + ingest overlay), "compressed",
// or "map".
func (s *Summary) StoreKind() string {
	switch {
	case s.multi != nil:
		if k, ok := s.multi.(kinded); ok {
			return k.StoreKind()
		}
		return "shards"
	case s.comp != nil:
		return "compressed"
	default:
		return "map"
	}
}

// residentSized is implemented by backends that can report the bytes
// they actually keep resident (all current backends do).
type residentSized interface {
	ResidentBytes() int
}

// ResidentBytes reports the bytes the active backend keeps resident in
// memory (or memory-mapped). Unlike SizeBytes — the accounted storage
// size, identical across backends — this reflects the representation,
// which is what byte-budget admission in the fleet registry meters.
func (s *Summary) ResidentBytes() int {
	if rs, ok := s.store().(residentSized); ok {
		return rs.ResidentBytes()
	}
	if sz, ok := s.store().(sized); ok {
		return sz.SizeBytes()
	}
	return 0
}

// CloseStore releases resources held by the active backend — today the
// memory mapping behind a compressed snapshot opened from a file. The
// caller must ensure no estimates are in flight; after the call the
// summary answers misses. Summaries whose backends hold no external
// resources return nil untouched.
func (s *Summary) CloseStore() error {
	if s.comp != nil {
		return s.comp.Close()
	}
	return nil
}
