package transport

import (
	"encoding/binary"
	"fmt"
)

// The TCP fabric's wire format, little endian:
//
//	request:      from(4) kind(1) sample(4) value(8)
//	response:     ok(1) value(8) len(4) data(len)
//	run request:  from(4) kindRun(1) count(4) 0(8), count × [sample(4) value(8)]
//	run response: count response headers, then their payloads back to back
//
// A run carries count > 1 fetches in one exchange; the replies come back in
// request order. The codec lives here, separate from the socket plumbing, so the fuzz tier
// (wire_fuzz_test.go) can hammer the exact bytes-to-struct functions the
// serve and Call loops use.

// reqSize is the fixed request message size.
const reqSize = 4 + 1 + 4 + 8

// respHeadSize is the fixed response header size (the payload follows).
const respHeadSize = 1 + 8 + 4

// maxDataLen caps a response's declared payload length. The length field is
// attacker-controlled on a real network; without the cap, a corrupt or
// malicious header makes the reader allocate up to 4 GiB before the first
// payload byte arrives. Samples are tens of MB at the largest (CosmoFlow
// 512³ is ~0.5 GiB full-paper scale — still under this bound).
const maxDataLen = 1 << 30

// kindRun is the wire-only kind of a run header, whose sample field is the
// item count. maxRunLen caps the count, which, like a payload length, is the
// wire's word: a count over it is rejected before its items are read.
const (
	kindRun     = 0x80
	runItemSize = 4 + 8
	maxRunLen   = 1 << 10
)

// appendFrame appends the request frame carrying reqs to dst: one request,
// or a run of more than one fetch.
func appendFrame(dst []byte, from int, reqs []Request) []byte {
	var head [reqSize]byte
	if len(reqs) == 1 {
		encodeRequest(&head, from, reqs[0])
		return append(dst, head[:]...)
	}
	encodeRequest(&head, from, Request{Kind: kindRun, Sample: int32(len(reqs))})
	dst = append(dst, head[:]...)
	for _, r := range reqs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Sample))
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	}
	return dst
}

// runLen returns the item count of a decoded run header.
func runLen(head Request) (int, error) {
	if n := uint32(head.Sample); n == 0 || n > maxRunLen {
		return 0, fmt.Errorf("transport: run declares %d items, cap is %d", n, maxRunLen)
	}
	return int(head.Sample), nil
}

// decodeRunItems appends the fetches of a run's item block b to reqs.
func decodeRunItems(b []byte, reqs []Request) []Request {
	for ; len(b) >= runItemSize; b = b[runItemSize:] {
		reqs = append(reqs, Request{Kind: KindFetch, Sample: int32(binary.LittleEndian.Uint32(b)),
			Value: binary.LittleEndian.Uint64(b[4:])})
	}
	return reqs
}

// appendHeads appends the response headers of resps to dst, the head block
// that precedes their payloads in one reply.
func appendHeads(dst []byte, resps []Response) ([]byte, error) {
	var head [respHeadSize]byte
	for _, r := range resps {
		if err := encodeResponseHeader(&head, r); err != nil {
			return dst, err
		}
		dst = append(dst, head[:]...)
	}
	return dst, nil
}

// encodeRequest marshals one request message.
func encodeRequest(buf *[reqSize]byte, from int, req Request) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(from))
	buf[4] = req.Kind
	binary.LittleEndian.PutUint32(buf[5:9], uint32(req.Sample))
	binary.LittleEndian.PutUint64(buf[9:17], req.Value)
}

// decodeRequest unmarshals one request message. Unknown kinds are not an
// error at this layer — the handler answers them with an empty response,
// which is what keeps old endpoints compatible with newer request kinds.
func decodeRequest(b []byte) (from int, req Request, err error) {
	if len(b) < reqSize {
		return 0, Request{}, fmt.Errorf("transport: short request: %d bytes, want %d", len(b), reqSize)
	}
	from = int(int32(binary.LittleEndian.Uint32(b[0:4])))
	req = Request{
		Kind:   b[4],
		Sample: int32(binary.LittleEndian.Uint32(b[5:9])),
		Value:  binary.LittleEndian.Uint64(b[9:17]),
	}
	return from, req, nil
}

// encodeResponseHeader marshals a response's fixed header; the caller
// writes resp.Data afterwards. It reports an error for payloads over the
// wire cap instead of emitting a header the peer will reject.
func encodeResponseHeader(head *[respHeadSize]byte, resp Response) error {
	if len(resp.Data) > maxDataLen {
		return fmt.Errorf("transport: response payload %d exceeds wire cap %d", len(resp.Data), maxDataLen)
	}
	head[0] = 0
	if resp.OK {
		head[0] = 1
	}
	binary.LittleEndian.PutUint64(head[1:9], resp.Value)
	binary.LittleEndian.PutUint32(head[9:13], uint32(len(resp.Data)))
	return nil
}

// decodeResponseHeader unmarshals a response header, returning the declared
// payload length. Lengths over maxDataLen are rejected before any
// allocation happens.
func decodeResponseHeader(b []byte) (resp Response, dataLen uint32, err error) {
	if len(b) < respHeadSize {
		return Response{}, 0, fmt.Errorf("transport: short response header: %d bytes, want %d", len(b), respHeadSize)
	}
	dataLen = binary.LittleEndian.Uint32(b[9:13])
	if dataLen > maxDataLen {
		return Response{}, 0, fmt.Errorf("transport: response declares %d payload bytes, cap is %d", dataLen, maxDataLen)
	}
	resp = Response{
		OK:    b[0] == 1,
		Value: binary.LittleEndian.Uint64(b[1:9]),
	}
	return resp, dataLen, nil
}
