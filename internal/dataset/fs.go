package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// FSDataset is a dataset materialised as one file per sample in the standard
// ImageNet directory layout (one directory per class). It backs the live
// middleware's "data at rest on a PFS" starting state and the filesystem
// storage backend tests.
type FSDataset struct {
	name    string
	root    string
	classes int
	sizes   []int64
	total   int64
}

// manifest is persisted alongside the samples so an FSDataset can be
// reopened without re-statting every file.
type manifest struct {
	Name    string  `json:"name"`
	Classes int     `json:"classes"`
	Sizes   []int64 `json:"sizes"`
}

const manifestName = "nopfs-manifest.json"

// samplePath returns the on-disk location of sample id under root.
func samplePath(root string, classes, id int) string {
	return filepath.Join(root, fmt.Sprintf("class_%04d", id%classes), fmt.Sprintf("sample_%08d.bin", id))
}

// Materialize writes every sample of d into dir and returns the resulting
// FSDataset. dir is created if needed. Intended for scaled-down datasets;
// writing ImageNet-22k would need 1.5 TB of disk.
func Materialize(d *Synthetic, dir string) (*FSDataset, error) {
	spec := d.Spec()
	sizes := make([]int64, d.Len())
	for id := 0; id < d.Len(); id++ {
		data, err := d.ReadSample(id)
		if err != nil {
			return nil, err
		}
		path := samplePath(dir, spec.Classes, id)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, fmt.Errorf("dataset: materialize: %w", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, fmt.Errorf("dataset: materialize sample %d: %w", id, err)
		}
		sizes[id] = int64(len(data))
	}
	m := manifest{Name: spec.Name, Classes: spec.Classes, Sizes: sizes}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		return nil, err
	}
	return OpenFS(dir)
}

// OpenFS opens a previously materialised dataset rooted at dir.
func OpenFS(dir string) (*FSDataset, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("dataset: corrupt manifest in %s: %w", dir, err)
	}
	if m.Classes <= 0 || len(m.Sizes) == 0 {
		return nil, fmt.Errorf("dataset: manifest in %s is invalid", dir)
	}
	var total int64
	for _, s := range m.Sizes {
		total += s
	}
	return &FSDataset{name: m.Name, root: dir, classes: m.Classes, sizes: m.Sizes, total: total}, nil
}

// Name implements Dataset.
func (d *FSDataset) Name() string { return d.name }

// Len implements Dataset.
func (d *FSDataset) Len() int { return len(d.sizes) }

// Size implements Dataset.
func (d *FSDataset) Size(id int) int64 { return d.sizes[id] }

// TotalSize implements Dataset.
func (d *FSDataset) TotalSize() int64 { return d.total }

// Label implements Dataset.
func (d *FSDataset) Label(id int) int { return id % d.classes }

// Path returns the on-disk path of sample id.
func (d *FSDataset) Path(id int) string { return samplePath(d.root, d.classes, id) }

// ReadSample reads the sample's file.
func (d *FSDataset) ReadSample(id int) ([]byte, error) { return d.ReadSampleInto(id, nil) }

// ReadSampleInto is ReadSample into buf when it has the capacity.
func (d *FSDataset) ReadSampleInto(id int, buf []byte) ([]byte, error) {
	if id < 0 || id >= len(d.sizes) {
		return nil, fmt.Errorf("dataset %s: sample %d out of range [0,%d)", d.name, id, len(d.sizes))
	}
	f, err := os.Open(d.Path(id))
	if err == nil {
		defer f.Close()
		buf = slices.Grow(buf[:0], int(d.sizes[id]))[:d.sizes[id]]
		_, err = io.ReadFull(f, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset %s: read sample %d: %w", d.name, id, err)
	}
	return buf, nil
}
