package dataset

import (
	"bytes"
	"hash/crc32"
	"math/bits"
	"testing"

	"repro/internal/cpu"
	"repro/internal/prng"
)

func TestChecksumMatchesIEEE(t *testing.T) {
	// Both paths, the VPCLMULQDQ kernel's and crc32.ChecksumIEEE's, for
	// every length 0–1,100 (every head residue mod 64, one to four-block
	// loops and the one-block tail) and 8,192 and 131,075, on seeded random
	// bytes at an unaligned start, with guard bytes around the input that
	// differ from it: the kernel must neither read nor write them. The
	// vector path also runs the kernel below minVectorCRC.
	for _, path := range []struct {
		name   string
		vector bool
	}{{"go", false}, {"vector", true}} {
		t.Run(path.name, func(t *testing.T) {
			if path.vector && !cpu.VPCLMULQDQ {
				t.Skip("host lacks VPCLMULQDQ/AVX512F: the vector kernel cannot run")
			}
			defer func(v bool) { vectorCRC = v }(vectorCRC)
			vectorCRC = path.vector
			lengths := []int{8192, 131075}
			for n := 0; n <= 1100; n++ {
				lengths = append(lengths, n)
			}
			g := prng.New(58)
			for _, n := range lengths {
				for _, off := range []int{1, 3} {
					buf := bytes.Repeat([]byte{0xa5}, off+n+8)
					for i := off; i < off+n; i++ {
						buf[i] = byte(g.Uint64())
					}
					guard := append([]byte(nil), buf...)
					p := buf[off : off+n]
					want := crc32.ChecksumIEEE(p)
					if got := checksum(p); got != want {
						t.Fatalf("n=%d off=%d: checksum %#08x, want %#08x", n, off, got, want)
					}
					if path.vector && n > 0 {
						if got := vectorChecksum(p); got != want {
							t.Fatalf("n=%d off=%d: vectorChecksum %#08x, want %#08x", n, off, got, want)
						}
					}
					if !bytes.Equal(buf, guard) {
						t.Fatalf("n=%d off=%d: checksum wrote its input or guard bytes", n, off)
					}
				}
			}
		})
	}
}

func TestVerifySampleDetectsEveryBlockFlip(t *testing.T) {
	// One flipped body bit in each 64-byte block of an 8 KiB payload, and in
	// the sub-64-byte tail before its trailer: the checksum kernel folds
	// every block it is given, so each must fail VerifySample.
	d := MustNew(Spec{Name: "flip", F: 1, MeanSize: 8 << 10, Classes: 1, Seed: 3})
	data, err := d.ReadSample(0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data) - trailerSize
	flips := []int{n - 1} // the last byte of the tail
	for at := 32; at < n; at += 64 {
		flips = append(flips, at) // a body byte of each block
	}
	for _, i := range flips {
		cp := append([]byte(nil), data...)
		cp[i] ^= 1 << (i % 8)
		if err := VerifySample(0, cp); err == nil {
			t.Errorf("bit %d of byte %d flipped: VerifySample passed", i%8, i)
		}
	}
}

// TestCRCFoldConstants recomputes the kernel's constant table from the
// polynomial, so a mistyped constant fails here by name on every host.
func TestCRCFoldConstants(t *testing.T) {
	const poly = 0x104C11DB7     // x³² + … + 1, the IEEE polynomial
	xpow := func(n int) uint64 { // x^n mod P
		r := uint64(1)
		for range n {
			if r <<= 1; r&(1<<32) != 0 {
				r ^= poly
			}
		}
		return r
	}
	k := func(n int) uint64 { return uint64(bits.Reverse32(uint32(xpow(n)))) << 1 }
	var mu uint64 // ⌊x^64 / P⌋, by long division, a 33-bit window over the dividend
	for r, d := uint64(1)<<32, 32; d >= 0; d-- {
		if r&(1<<32) != 0 {
			mu |= 1 << d
			r ^= poly
		}
		r <<= 1
	}
	reflect33 := func(v uint64) uint64 { return bits.Reverse64(v) >> 31 }
	want := [len(crcFold)]uint64{}
	for i, d := range []int{2048, 1536, 1024, 512, 256, 128} {
		want[2*i], want[2*i+1] = k(d+32), k(d-32)
	}
	want[12] = k(64)
	want[14], want[15] = reflect33(poly), reflect33(mu)
	for i := range want {
		if crcFold[i] != want[i] {
			t.Errorf("crcFold[%d] = %#x, want %#x", i, crcFold[i], want[i])
		}
	}
	if want[6] != 0x154442bd4 || want[14] != 0x1db710641 || want[15] != 0x1f7011641 {
		t.Errorf("derivation disagrees with hash/crc32's published constants: %#x %#x %#x", want[6], want[14], want[15])
	}
}

func BenchmarkChecksum8KB(b *testing.B) {
	for _, path := range []struct {
		name   string
		vector bool
	}{{"go", false}, {"vector", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.vector && !cpu.VPCLMULQDQ {
				b.Skip("host lacks VPCLMULQDQ/AVX512F")
			}
			defer func(v bool) { vectorCRC = v }(vectorCRC)
			vectorCRC = path.vector
			p := make([]byte, 8<<10-trailerSize) // an 8 KiB sample's checksummed bytes
			prng.NewSplitMix64(1).Fill(p)
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				sink32 = checksum(p)
			}
		})
	}
}

var sink32 uint32
