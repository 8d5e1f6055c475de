//go:build !amd64

package dataset

func crcBlocks(head *[64]byte, p []byte) uint32 { panic("dataset: no vector kernel") }
