// Package dataset provides the training datasets NoPFS ingests.
//
// The paper evaluates on MNIST, ImageNet-1k/-22k, OpenImages, and CosmoFlow.
// Those datasets are not redistributable here, so this package synthesises
// stand-ins with the paper's exact sample counts and file-size distributions
// (Sec. 6.1 Table): I/O behaviour depends only on how many samples exist and
// how large each is, both of which are matched. Sample payloads are
// deterministic, self-describing, and integrity-checkable so that every byte
// that flows through the caching hierarchy can be verified end to end.
package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/prng"
)

// MB is one megabyte in bytes; specs below quote sizes in MB like the paper.
const MB = 1 << 20

// headerSize is the fixed payload prefix: magic(4) id(8) size(8).
const headerSize = 20

// trailerSize is the CRC32 suffix.
const trailerSize = 4

// MinSampleSize is the smallest representable sample: header + trailer.
const MinSampleSize = headerSize + trailerSize

const payloadMagic = 0x4e6f5046 // "NoPF"

// Spec declares a synthetic dataset. Sizes are drawn from a truncated normal
// distribution (the paper's model: "filesizes are assumed to be distributed
// normally and we vary the μ and σ parameters and the number of samples").
type Spec struct {
	Name string
	// F is the number of samples.
	F int
	// MeanSize and StddevSize parameterise the size distribution, in bytes.
	MeanSize   int64
	StddevSize int64
	// Classes is the number of label classes (ImageNet-style layout).
	Classes int
	// Seed drives size generation; independent from the training seed.
	Seed uint64
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	switch {
	case s.F <= 0:
		return errors.New("dataset: spec needs F > 0")
	case s.MeanSize < MinSampleSize:
		return fmt.Errorf("dataset: mean size %d below minimum %d", s.MeanSize, MinSampleSize)
	case s.StddevSize < 0:
		return errors.New("dataset: negative stddev")
	case s.Classes <= 0:
		return errors.New("dataset: spec needs Classes > 0")
	}
	return nil
}

// Scale returns a copy of the spec with the sample count multiplied by
// factor (minimum 1 sample). Used to shrink paper-scale datasets for live
// in-process experiments while preserving the size distribution.
func (s Spec) Scale(factor float64) Spec {
	out := s
	out.F = int(float64(s.F) * factor)
	if out.F < 1 {
		out.F = 1
	}
	out.Name = fmt.Sprintf("%s-x%.4g", s.Name, factor)
	return out
}

// TotalSizeEstimate returns the expected dataset size in bytes (F * mean).
func (s Spec) TotalSizeEstimate() int64 { return int64(s.F) * s.MeanSize }

// Dataset is the metadata view shared by the simulator and the live system.
type Dataset interface {
	// Name identifies the dataset in reports.
	Name() string
	// Len returns the number of samples F.
	Len() int
	// Size returns the size in bytes of sample id.
	Size(id int) int64
	// TotalSize returns the sum of all sample sizes S.
	TotalSize() int64
	// Label returns the class label of sample id.
	Label(id int) int
}

// Synthetic is an in-memory-metadata dataset whose payloads are generated
// on demand: sample bytes are a pure function of (spec seed, id), so no
// storage is needed and any cached copy can be verified.
type Synthetic struct {
	spec    Spec
	sizesMB []float64 // the one size table; Size recovers the bytes exactly
	meanMB  float64
	total   int64
	digest  uint64
}

// New builds a Synthetic dataset from spec, materialising the per-sample
// size table in MB and its mean (shared by every simulator run over this
// dataset), and the size digest consumers use as a cache key.
func New(spec Spec) (*Synthetic, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := prng.New(spec.Seed).Derive(0xDA7A)
	sizesMB := make([]float64, spec.F)
	var total int64
	var sumMB float64
	digest := uint64(1469598103934665603) // FNV offset basis
	digest ^= uint64(spec.F)
	digest *= 1099511628211
	for i := range sizesMB {
		sz := spec.MeanSize
		if spec.StddevSize > 0 {
			sz = spec.MeanSize + int64(g.NormFloat64()*float64(spec.StddevSize))
		}
		if sz < MinSampleSize {
			sz = MinSampleSize
		}
		sizesMB[i] = float64(sz) / MB
		sumMB += sizesMB[i]
		total += sz
		digest ^= uint64(sz)
		digest *= 1099511628211
	}
	return &Synthetic{
		spec: spec, sizesMB: sizesMB, meanMB: sumMB / float64(spec.F), // Validate: F ≥ 1
		total: total, digest: digest,
	}, nil
}

// SizesMB returns the shared per-sample size table in MB. The slice is
// immutable; callers must not modify it.
func (d *Synthetic) SizesMB() []float64 { return d.sizesMB }

// MeanSizeMB returns the mean of SizesMB, summed in table order.
func (d *Synthetic) MeanSizeMB() float64 { return d.meanMB }

// SizeDigest returns an FNV-1a digest of (F, every sample size) — the same
// formula plancache.SizerDigest computes generically — so digest-keyed
// caches resolve it in O(1) instead of re-hashing F sizes per lookup.
func (d *Synthetic) SizeDigest() uint64 { return d.digest }

// MustNew is New but panics on error; for tests and presets known valid.
func MustNew(spec Spec) *Synthetic {
	d, err := New(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Dataset.
func (d *Synthetic) Name() string { return d.spec.Name }

// Spec returns the generating spec.
func (d *Synthetic) Spec() Spec { return d.spec }

// Len implements Dataset.
func (d *Synthetic) Len() int { return d.spec.F }

// Size implements Dataset. MB is a power of two, so float64(size)/MB and
// back is exact for any size below 2⁵³.
func (d *Synthetic) Size(id int) int64 { return int64(d.sizesMB[id] * MB) }

// TotalSize implements Dataset.
func (d *Synthetic) TotalSize() int64 { return d.total }

// Label implements Dataset; labels cycle through the classes.
func (d *Synthetic) Label(id int) int { return id % d.spec.Classes }

// MeanSize returns the empirical mean sample size in bytes.
func (d *Synthetic) MeanSize() float64 {
	return float64(d.total) / float64(d.spec.F)
}

// ReadSample synthesises the deterministic payload of sample id. Layout:
// magic(4) | id(8) | size(8) | body | crc32(4); the body is a SplitMix64
// keystream seeded by (dataset seed, id).
func (d *Synthetic) ReadSample(id int) ([]byte, error) { return d.ReadSampleInto(id, nil) }

// ReadSampleInto is ReadSample into buf when it has the capacity.
func (d *Synthetic) ReadSampleInto(id int, buf []byte) ([]byte, error) {
	if id < 0 || id >= d.spec.F {
		return nil, fmt.Errorf("dataset %s: sample %d out of range [0,%d)", d.spec.Name, id, d.spec.F)
	}
	size := d.Size(id)
	buf = slices.Grow(buf[:0], int(size))[:size]
	binary.LittleEndian.PutUint32(buf[0:4], payloadMagic)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(id))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(size))
	prng.NewSplitMix64(d.spec.Seed ^ (uint64(id) * 0x9e3779b97f4a7c15) ^ 0xC0FFEE).Fill(buf[headerSize : size-trailerSize])
	crc := checksum(buf[:size-trailerSize])
	binary.LittleEndian.PutUint32(buf[size-trailerSize:], crc)
	return buf, nil
}

// VerifySample checks that data is the authentic payload of sample id:
// correct magic, id, length, and CRC. Any corruption anywhere in the caching
// hierarchy surfaces here.
func VerifySample(id int, data []byte) error {
	if len(data) < MinSampleSize {
		return fmt.Errorf("dataset: sample %d payload too short (%d bytes)", id, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != payloadMagic {
		return fmt.Errorf("dataset: sample %d bad magic %#x", id, m)
	}
	if got := binary.LittleEndian.Uint64(data[4:12]); got != uint64(id) {
		return fmt.Errorf("dataset: payload claims sample %d, expected %d", got, id)
	}
	if got := binary.LittleEndian.Uint64(data[12:20]); got != uint64(len(data)) {
		return fmt.Errorf("dataset: sample %d length field %d != payload length %d", id, got, len(data))
	}
	want := binary.LittleEndian.Uint32(data[len(data)-trailerSize:])
	if crc := checksum(data[:len(data)-trailerSize]); crc != want {
		return fmt.Errorf("dataset: sample %d CRC mismatch (got %#x want %#x)", id, crc, want)
	}
	return nil
}
