package nopfs

import "sync"

// chunkBytes is the size of the chunks a class carves its payloads from.
const chunkBytes = 1 << 20

// chunks is one local class's payload allocator. A class keeps what it
// stores, and the paper fills its byte capacity exactly (Sec. 5.1), so its
// payloads are carved back to back from chunks rather than each being a heap
// object rounded up to a size class. It holds only its current chunk; the
// slices carved from earlier ones keep those alive.
type chunks struct {
	mu    sync.Mutex
	chunk []byte // carved up to off
	off   int
	holes int64 // bytes of unused carves that retract could not undo
}

// carve returns an n-byte slice with cap == len, so an append cannot reach a
// neighbour. A new chunk holds at most room, the bytes the class can still
// keep, so the last one has no unused tail; a payload larger than a chunk
// gets an allocation of its own.
func (a *chunks) carve(n int, room int64) []byte {
	if n > chunkBytes {
		return make([]byte, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.off+n > len(a.chunk) {
		a.chunk, a.off = make([]byte, max(n, int(min(room, chunkBytes)))), 0
	}
	a.off += n
	return a.chunk[a.off-n : a.off : a.off]
}

// retract takes back a carve nothing was read into: the newest one returns
// to the chunk, any other stays a counted hole.
func (a *chunks) retract(b []byte) {
	if len(b) == 0 || len(b) > chunkBytes {
		return // nothing carved, or an allocation of its own
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.off >= len(b) && &a.chunk[a.off-len(b)] == &b[0] {
		a.off -= len(b)
	} else {
		a.holes += int64(len(b))
	}
}
