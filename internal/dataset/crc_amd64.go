package dataset

// crcBlocks returns the CRC-32 (IEEE) register after the block head and the
// whole blocks of p, from a zero register: a starting state is XORed into
// head's first four bytes.
//
//go:noescape
func crcBlocks(head *[64]byte, p []byte) uint32
