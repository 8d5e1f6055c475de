package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Native Go fuzzing for the TCP wire codec: the decode functions face bytes
// from a real network, so they must never panic, must reject malformed
// input cleanly, and must round-trip with the encoders. Seed corpus lives
// under testdata/fuzz/<FuzzName>/; CI runs a short -fuzztime smoke per
// target on every push and a longer pass behind workflow_dispatch.

// FuzzDecodeMessage hammers the request codec: arbitrary bytes must decode
// without panicking, and anything that decodes must re-encode to the exact
// wire prefix it came from.
func FuzzDecodeMessage(f *testing.F) {
	// Valid requests of both kinds, a truncated message, an unknown kind,
	// and all-ones padding. Sender ranks no fabric has (-1 here, MaxInt32 in
	// testdata's from-out-of-range) decode fine: rejecting them is serve's
	// job, which knows the fabric's size.
	var buf [reqSize]byte
	encodeRequest(&buf, 3, Request{Kind: KindFetch, Sample: 12345})
	f.Add(buf[:])
	encodeRequest(&buf, 0, Request{Kind: KindValue, Value: 0xDEADBEEFCAFE})
	f.Add(buf[:])
	encodeRequest(&buf, -1, Request{Kind: 0xFF, Sample: -9, Value: ^uint64(0)})
	f.Add(buf[:])
	f.Add(buf[:5])
	f.Add(bytes.Repeat([]byte{0xFF}, reqSize+3))

	f.Fuzz(func(t *testing.T, data []byte) {
		from, req, err := decodeRequest(data)
		if err != nil {
			if len(data) >= reqSize {
				t.Fatalf("full-size message rejected: %v", err)
			}
			return
		}
		if len(data) < reqSize {
			t.Fatalf("short message (%d bytes) decoded", len(data))
		}
		// The sender rank is a signed 32-bit field: whatever the wire says,
		// serve's [0, Size) check sees it without wrap-around.
		if from < math.MinInt32 || from > math.MaxInt32 {
			t.Fatalf("sender rank %d outside the wire field's range", from)
		}
		// Round trip: decode → encode reproduces the wire prefix bit for
		// bit (the codec carries every field).
		var back [reqSize]byte
		encodeRequest(&back, from, req)
		if !bytes.Equal(back[:], data[:reqSize]) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", data[:reqSize], back[:])
		}
	})
}

// FuzzHeader hammers the response-header codec: no panic, the declared
// payload length is always capped (the allocation guard), and accepted
// headers round-trip.
func FuzzHeader(f *testing.F) {
	var head [respHeadSize]byte
	if err := encodeResponseHeader(&head, Response{OK: true, Value: 7, Data: make([]byte, 9)}); err != nil {
		f.Fatal(err)
	}
	f.Add(head[:])
	if err := encodeResponseHeader(&head, Response{}); err != nil {
		f.Fatal(err)
	}
	f.Add(head[:])
	// A header declaring a 4 GiB payload: must be rejected by the cap.
	var huge [respHeadSize]byte
	binary.LittleEndian.PutUint32(huge[9:13], ^uint32(0))
	f.Add(huge[:])
	f.Add(head[:3])

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, n, err := decodeResponseHeader(data)
		if err != nil {
			if len(data) >= respHeadSize && binary.LittleEndian.Uint32(data[9:13]) <= maxDataLen {
				t.Fatalf("in-cap full-size header rejected: %v", err)
			}
			return
		}
		if len(data) < respHeadSize {
			t.Fatalf("short header (%d bytes) decoded", len(data))
		}
		if n > maxDataLen {
			t.Fatalf("accepted header declares %d bytes, over the %d cap", n, maxDataLen)
		}
		// Round trip through the encoder: equal header bytes except the OK
		// flag, which canonicalises any non-1 truthy byte to 0. Payloads
		// are only materialised below a sanity size — the cap itself admits
		// up to 1 GiB, which would turn the fuzz loop into an allocation
		// benchmark.
		if n <= 1<<16 {
			resp.Data = make([]byte, n)
			var back [respHeadSize]byte
			if err := encodeResponseHeader(&back, resp); err != nil {
				t.Fatalf("re-encoding accepted header failed: %v", err)
			}
			if !bytes.Equal(back[1:], data[1:respHeadSize]) {
				t.Fatalf("round trip diverged:\n in  %x\n out %x", data[:respHeadSize], back[:])
			}
		}
		if (data[0] == 1) != resp.OK {
			t.Fatalf("OK flag mangled: byte %#x decoded as %v", data[0], resp.OK)
		}
	})
}

// FuzzRunMessage hammers the run codec with a request frame and a response
// head block. A frame that decodes as a run header must declare between 1
// and maxRunLen items (the count is rejected before any item is read), and
// a whole run must re-encode to the exact bytes it came from. A head block
// decodes head by head, each with its payload length capped, and what it
// decodes re-encodes to the same block.
func FuzzRunMessage(f *testing.F) {
	reqs := []Request{{Kind: KindFetch, Sample: 7, Value: 70}, {Kind: KindFetch, Sample: -1, Value: ^uint64(0)}}
	heads, err := appendHeads(nil, []Response{{OK: true, Value: 3, Data: make([]byte, 5)}, {}})
	if err != nil {
		f.Fatal(err)
	}
	run := appendFrame(nil, 2, reqs)
	f.Add(run, heads)
	f.Add(run[:reqSize+runItemSize], heads[:respHeadSize+4])
	over := slices.Clone(run)
	binary.LittleEndian.PutUint32(over[5:9], maxRunLen+1)
	f.Add(over, []byte{})

	f.Fuzz(func(t *testing.T, frame, block []byte) {
		if _, head, err := decodeRequest(frame); err == nil && head.Kind == kindRun {
			n, err := runLen(head)
			if count := binary.LittleEndian.Uint32(frame[5:9]); (err == nil) != (count >= 1 && count <= maxRunLen) {
				t.Fatalf("run header declaring %d items: count %d, err %v", count, n, err)
			}
			if err == nil && n > 1 && len(frame) >= reqSize+n*runItemSize {
				items := decodeRunItems(frame[reqSize:reqSize+n*runItemSize], nil)
				if len(items) != n {
					t.Fatalf("run of %d decoded %d items", n, len(items))
				}
				// A run of one goes out as a single request, so only longer
				// runs round-trip; the header's value field is not read.
				back := appendFrame(nil, int(int32(binary.LittleEndian.Uint32(frame))), items)
				if !bytes.Equal(back[:9], frame[:9]) || !bytes.Equal(back[reqSize:], frame[reqSize:len(back)]) {
					t.Fatalf("run round trip diverged:\n in  %x\n out %x", frame[:len(back)], back)
				}
			}
		}
		var resps []Response
		for b := block; len(b) >= respHeadSize; b = b[respHeadSize:] {
			resp, n, err := decodeResponseHeader(b)
			if err != nil {
				if binary.LittleEndian.Uint32(b[9:13]) <= maxDataLen {
					t.Fatalf("in-cap head rejected: %v", err)
				}
				return
			}
			if n > 1<<16 {
				return // materialising the payload would turn the loop into an allocation benchmark
			}
			resp.Data = make([]byte, n)
			resps = append(resps, resp)
		}
		back, err := appendHeads(nil, resps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range resps {
			in, out := block[i*respHeadSize:(i+1)*respHeadSize], back[i*respHeadSize:]
			if !bytes.Equal(in[1:], out[1:respHeadSize]) || (in[0] == 1) != (out[0] == 1) {
				t.Fatalf("head %d round trip diverged:\n in  %x\n out %x", i, in, out[:respHeadSize])
			}
		}
	})
}
