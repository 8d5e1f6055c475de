package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func smallSpec() Spec {
	return Spec{Name: "test", F: 200, MeanSize: 2048, StddevSize: 512, Classes: 7, Seed: 9}
}

func TestSpecValidate(t *testing.T) {
	if err := smallSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Name: "f0", F: 0, MeanSize: 1000, Classes: 1},
		{Name: "tiny", F: 1, MeanSize: 8, Classes: 1},
		{Name: "negsd", F: 1, MeanSize: 1000, StddevSize: -1, Classes: 1},
		{Name: "nocls", F: 1, MeanSize: 1000, Classes: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %q accepted", s.Name)
		}
	}
}

func TestNewRejectsBadSpec(t *testing.T) {
	if _, err := New(Spec{Name: "x", F: 0, MeanSize: 1000, Classes: 1}); err == nil {
		t.Fatal("New accepted invalid spec")
	}
}

func TestSizesDeterministicAndPositive(t *testing.T) {
	a := MustNew(smallSpec())
	b := MustNew(smallSpec())
	if a.TotalSize() != b.TotalSize() {
		t.Fatal("same spec produced different total sizes")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Size(i) != b.Size(i) {
			t.Fatalf("sample %d size differs between builds", i)
		}
		if a.Size(i) < MinSampleSize {
			t.Fatalf("sample %d size %d below minimum", i, a.Size(i))
		}
	}
}

func TestSizeDistributionMoments(t *testing.T) {
	spec := Spec{Name: "dist", F: 20000, MeanSize: 100000, StddevSize: 10000, Classes: 2, Seed: 4}
	d := MustNew(spec)
	var sum, sumSq float64
	for i := 0; i < d.Len(); i++ {
		s := float64(d.Size(i))
		sum += s
		sumSq += s * s
	}
	n := float64(d.Len())
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-100000) > 500 {
		t.Errorf("mean size = %.0f, want ~100000", mean)
	}
	if math.Abs(sd-10000) > 500 {
		t.Errorf("size stddev = %.0f, want ~10000", sd)
	}
}

func TestZeroStddevExactSizes(t *testing.T) {
	d := MustNew(Spec{Name: "fixed", F: 50, MeanSize: 4096, Classes: 5, Seed: 1})
	for i := 0; i < d.Len(); i++ {
		if d.Size(i) != 4096 {
			t.Fatalf("sample %d size %d, want exactly 4096", i, d.Size(i))
		}
	}
	if d.TotalSize() != 50*4096 {
		t.Errorf("TotalSize = %d", d.TotalSize())
	}
}

func TestReadSampleRoundTrip(t *testing.T) {
	d := MustNew(smallSpec())
	for _, id := range []int{0, 1, 50, d.Len() - 1} {
		data, err := d.ReadSample(id)
		if err != nil {
			t.Fatalf("ReadSample(%d): %v", id, err)
		}
		if int64(len(data)) != d.Size(id) {
			t.Fatalf("sample %d payload %d bytes, size table says %d", id, len(data), d.Size(id))
		}
		if err := VerifySample(id, data); err != nil {
			t.Fatalf("VerifySample(%d): %v", id, err)
		}
	}
}

func TestReadSampleDeterministic(t *testing.T) {
	d := MustNew(smallSpec())
	a, _ := d.ReadSample(3)
	b, _ := d.ReadSample(3)
	if string(a) != string(b) {
		t.Fatal("same sample produced different payloads")
	}
}

func TestReadSampleOutOfRange(t *testing.T) {
	d := MustNew(smallSpec())
	if _, err := d.ReadSample(-1); err == nil {
		t.Error("ReadSample(-1) succeeded")
	}
	if _, err := d.ReadSample(d.Len()); err == nil {
		t.Error("ReadSample(Len) succeeded")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	d := MustNew(smallSpec())
	data, _ := d.ReadSample(5)

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flip body byte", func(b []byte) []byte { b[25] ^= 1; return b }},
		{"flip header id", func(b []byte) []byte { b[4] ^= 1; return b }},
		{"truncate", func(b []byte) []byte { return b[:len(b)-1] }},
		{"too short", func(b []byte) []byte { return b[:4] }},
		{"flip magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
	} {
		cp := append([]byte(nil), data...)
		if err := VerifySample(5, tc.mutate(cp)); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
	// Wrong id claim.
	if err := VerifySample(6, data); err == nil {
		t.Error("payload for sample 5 verified as sample 6")
	}
}

func TestVerifySampleProperty(t *testing.T) {
	d := MustNew(Spec{Name: "q", F: 64, MeanSize: 600, StddevSize: 200, Classes: 3, Seed: 8})
	f := func(raw uint8) bool {
		id := int(raw) % d.Len()
		data, err := d.ReadSample(id)
		if err != nil {
			return false
		}
		return VerifySample(id, data) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	d := MustNew(smallSpec())
	for i := 0; i < d.Len(); i++ {
		if l := d.Label(i); l != i%7 {
			t.Fatalf("Label(%d) = %d, want %d", i, l, i%7)
		}
	}
}

func TestScale(t *testing.T) {
	s := ImageNet1kSpec().Scale(0.001)
	if s.F != 1281 {
		t.Errorf("scaled F = %d, want 1281", s.F)
	}
	if s.MeanSize != ImageNet1kSpec().MeanSize {
		t.Error("Scale changed the size distribution")
	}
	tiny := ImageNet1kSpec().Scale(0)
	if tiny.F != 1 {
		t.Errorf("Scale(0) F = %d, want clamp to 1", tiny.F)
	}
}

func TestPaperPresetTotals(t *testing.T) {
	// Check the presets land near the paper's quoted dataset sizes.
	cases := []struct {
		spec   Spec
		wantGB float64
		within float64 // relative tolerance
	}{
		{MNISTSpec(), 0.039, 0.15},
		{ImageNet1kSpec(), 135, 0.1},
		{OpenImagesSpec(), 500, 0.1},
		{ImageNet22kSpec(), 1500, 0.1},
		{CosmoFlowSpec(), 4360, 0.1},
		{CosmoFlow512Spec(), 9770, 0.1},
	}
	for _, c := range cases {
		gotGB := float64(c.spec.TotalSizeEstimate()) / (1 << 30)
		if math.Abs(gotGB-c.wantGB)/c.wantGB > c.within {
			t.Errorf("%s: estimated %.1f GB, want ~%.1f GB", c.spec.Name, gotGB, c.wantGB)
		}
	}
}

func TestMaterializeAndOpenFS(t *testing.T) {
	dir := t.TempDir()
	d := MustNew(Spec{Name: "fs", F: 30, MeanSize: 512, StddevSize: 100, Classes: 4, Seed: 2})
	fsd, err := Materialize(d, dir)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if fsd.Len() != d.Len() || fsd.TotalSize() != d.TotalSize() {
		t.Fatalf("FS metadata mismatch: len %d/%d total %d/%d",
			fsd.Len(), d.Len(), fsd.TotalSize(), d.TotalSize())
	}
	for id := 0; id < d.Len(); id++ {
		want, _ := d.ReadSample(id)
		got, err := fsd.ReadSample(id)
		if err != nil {
			t.Fatalf("fs read %d: %v", id, err)
		}
		if string(got) != string(want) {
			t.Fatalf("sample %d bytes differ on disk", id)
		}
		if err := VerifySample(id, got); err != nil {
			t.Fatalf("fs sample %d: %v", id, err)
		}
		if fsd.Label(id) != d.Label(id) {
			t.Fatalf("label mismatch at %d", id)
		}
	}
	// Reopen from disk.
	re, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	if re.Name() != "fs" || re.Len() != 30 {
		t.Errorf("reopened dataset: name=%q len=%d", re.Name(), re.Len())
	}
}

func TestOpenFSErrors(t *testing.T) {
	if _, err := OpenFS(t.TempDir()); err == nil {
		t.Error("OpenFS on empty dir succeeded")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644)
	if _, err := OpenFS(dir); err == nil {
		t.Error("OpenFS with corrupt manifest succeeded")
	}
	os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"name":"x","classes":0,"sizes":[1]}`), 0o644)
	if _, err := OpenFS(dir); err == nil {
		t.Error("OpenFS with invalid manifest succeeded")
	}
}

func TestFSReadSampleOutOfRange(t *testing.T) {
	dir := t.TempDir()
	d := MustNew(Spec{Name: "fs2", F: 3, MeanSize: 256, Classes: 1, Seed: 3})
	fsd, err := Materialize(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsd.ReadSample(99); err == nil {
		t.Error("out-of-range fs read succeeded")
	}
}

func TestPayloadGolden(t *testing.T) {
	// The payload bytes of a fixed spec, pinned by digest. Its body lengths
	// cover every residue mod 8 and most mod 64, so the keystream's block,
	// word and partial-word paths are all in the digest.
	d := MustNew(Spec{Name: "golden", F: 64, MeanSize: 300, StddevSize: 120, Classes: 3, Seed: 44})
	h := sha256.New()
	tails := map[int64]bool{}
	for id := 0; id < d.Len(); id++ {
		b, err := d.ReadSample(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		tails[(d.Size(id)-MinSampleSize)%64] = true
	}
	if len(tails) < 32 {
		t.Fatalf("body lengths cover %d residues mod 64, want ≥ 32", len(tails))
	}
	const want = "af32a905452fbe502ccf9322961f11bdeafd1a43ea3a057b59c1e798a0e86e9c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("payload digest %s, want %s", got, want)
	}
}

func BenchmarkReadSample8KB(b *testing.B) {
	d := MustNew(Spec{Name: "bench", F: 16, MeanSize: 8 << 10, Classes: 1, Seed: 1})
	buf := make([]byte, 8<<10)
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadSampleInto(i%16, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSample128KB(b *testing.B) {
	d := MustNew(Spec{Name: "bench", F: 16, MeanSize: 128 << 10, Classes: 1, Seed: 1})
	b.SetBytes(128 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadSample(i % 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySample128KB(b *testing.B) {
	d := MustNew(Spec{Name: "bench", F: 1, MeanSize: 128 << 10, Classes: 1, Seed: 1})
	data, _ := d.ReadSample(0)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := VerifySample(0, data); err != nil {
			b.Fatal(err)
		}
	}
}
