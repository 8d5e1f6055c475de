package dataset

// mb converts a size quoted in megabytes to bytes at runtime.
func mb(x float64) int64 { return int64(x * float64(MB)) }

// Paper dataset presets (Sec. 6.1 and Sec. 7). Sizes in bytes; μ and σ are
// the paper's values converted from KB/MB. Building the full-size metadata is
// cheap (a size table), but materialising payloads at full scale is not —
// use Spec.Scale for live experiments.

// MNISTSpec: μ = 0.76 KB, σ = 0, F = 50,000 → ≈40 MB (Fig. 8a).
func MNISTSpec() Spec {
	return Spec{Name: "mnist", F: 50000, MeanSize: 778, StddevSize: 0, Classes: 10, Seed: 0x11}
}

// ImageNet1kSpec: μ = 0.1077 MB, σ = 0.1 MB, F = 1,281,167 → ≈135 GB (Fig. 8b).
func ImageNet1kSpec() Spec {
	return Spec{
		Name: "imagenet-1k", F: 1281167,
		MeanSize: mb(0.1077), StddevSize: mb(0.1),
		Classes: 1000, Seed: 0x12,
	}
}

// OpenImagesSpec: μ = 0.2937 MB, σ = 0.2 MB, F = 1,743,042 → ≈500 GB (Fig. 8c).
func OpenImagesSpec() Spec {
	return Spec{
		Name: "openimages", F: 1743042,
		MeanSize: mb(0.2937), StddevSize: mb(0.2),
		Classes: 600, Seed: 0x13,
	}
}

// ImageNet22kSpec: μ = 0.1077 MB, σ = 0.2 MB, F = 14,197,122 → ≈1.5 TB (Fig. 8d).
func ImageNet22kSpec() Spec {
	return Spec{
		Name: "imagenet-22k", F: 14197122,
		MeanSize: mb(0.1077), StddevSize: mb(0.2),
		Classes: 21841, Seed: 0x14,
	}
}

// CosmoFlowSpec: μ = 17 MB, σ = 0, F = 262,144 → ≈4 TB (Fig. 8e). The
// MLPerf-HPC 128³ samples are 16 MiB of tensor data; the paper's simulator
// uses 17 MB which includes format overhead — we follow the simulator value.
func CosmoFlowSpec() Spec {
	return Spec{
		Name: "cosmoflow", F: 262144,
		MeanSize: 17 * MB, StddevSize: 0,
		Classes: 1, Seed: 0x15,
	}
}

// CosmoFlow512Spec: μ = 1,000 MB, σ = 0, F = 10,000 → ≈10 TB (Fig. 8f).
func CosmoFlow512Spec() Spec {
	return Spec{
		Name: "cosmoflow-512", F: 10000,
		MeanSize: 1000 * MB, StddevSize: 0,
		Classes: 1, Seed: 0x16,
	}
}
