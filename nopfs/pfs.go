package nopfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// readerInto is a Dataset that reads into a caller's buffer. Only its reads
// land in a fetch's buf: any other ReadSample may return memory the dataset
// keeps, which fetch's caller then stages or stores as it is.
type readerInto interface {
	ReadSampleInto(id int, buf []byte) ([]byte, error)
}

// fetch is fetchSource's leg past the local classes: holder (-1: none)
// serves k if it has a copy, else the PFS does; it returns the record slot
// that served. Its request's Value is pos, the stream position it serves,
// which keys the fault draw and the backoff (chaosEndpoint,
// resilientEndpoint). buf is the payload's destination: a staging free-list
// buffer for the staging path's fetch of an unassigned sample, which passes
// through staging to the consumer alone, or a slice carved from the class a
// flight stores into. A remote payload lands in it if the fabric reads into
// Request.Buf, a PFS read if the dataset is a readerInto; the caller's
// landed tells, and hands back a buf that stayed unused.
func (j *Job) fetch(k access.SampleID, pos, holder int, buf []byte) (int, []byte, error) {
	if holder < 0 {
		data, err := j.issueRead(k, buf)
		return len(j.backends) + slotPFS, data, err
	}
	resp, err := j.net.Call(j.ctx, holder, transport.Request{Kind: transport.KindFetch, Sample: k, Value: uint64(pos), Buf: buf})
	return j.remote(k, resp, err, buf)
}

// remote applies the fetch rule to a holder's reply for k. A miss or a
// failed call is a heuristic false positive (Sec. 5.2.2) and a PFS read
// into buf; an open circuit never reached the fabric, so it demotes to the
// PFS uncounted.
func (j *Job) remote(k access.SampleID, resp transport.Response, err error, buf []byte) (int, []byte, error) {
	switch {
	case err == nil && resp.OK:
		return len(j.backends) + slotRemote, resp.Data, nil
	case err != nil && j.ctx.Err() != nil:
		return 0, nil, errJobClosed // our own context ended: not a miss
	case !errors.Is(err, resilience.ErrCircuitOpen):
		j.rec.falsePos.Add(1)
	}
	if clock.Err(j.ctx) != nil {
		return 0, nil, errJobClosed
	}
	data, err := j.issueRead(k, buf)
	return len(j.backends) + slotPFS, data, err
}

// remoteRun is a staging prefetcher's scratch for fetchRemote: the items of
// its window, sorted by holder, with their requests and replies, and at,
// which maps a position of the window to its item. An entry left from an
// earlier window is told apart by the position of the item it names.
type remoteRun struct {
	first int
	at    []int
	items []holderPos
	reqs  []transport.Request
	resps []transport.Response
}

// holderPos is a position and the holder its tag names.
type holderPos struct{ holder, pos int }

// item is the item of pos, or -1 (always, for a nil run).
func (r *remoteRun) item(pos int) int {
	if r == nil {
		return -1
	}
	if i := r.at[pos-r.first]; i < len(r.items) && r.items[i].pos == pos {
		return i
	}
	return -1
}

// fetchRemote collects the window [first, end)'s positions that are tagged
// remote and unassigned, which land in staging buffers, as items for settle
// to fetch with one CallRun per holder.
func (j *Job) fetchRemote(r *remoteRun, first, end int) {
	if n := end - first; len(r.at) < n {
		*r = remoteRun{at: make([]int, n), items: make([]holderPos, 0, n), reqs: make([]transport.Request, n),
			resps: make([]transport.Response, n)}
	}
	r.first, r.items = first, r.items[:0]
	for pos := first; pos < end; pos++ {
		// A tag naming a local class is an assigned sample's.
		if k, tag := j.stream[pos], j.tags[pos]; tag>>4 != 0 && tag&0x0f == 0 && j.assign.Local(j.rank, k) < 0 {
			_, h := j.assign.RemoteAvail(j.rank, k, int32(pos))
			r.items = append(r.items, holderPos{h, pos})
		}
	}
	slices.SortFunc(r.items, func(a, b holderPos) int { return cmp.Or(a.holder-b.holder, a.pos-b.pos) })
	for i, hp := range r.items {
		r.at[hp.pos-first] = i
		r.reqs[i] = transport.Request{Kind: transport.KindFetch, Sample: j.stream[hp.pos], Value: uint64(hp.pos)}
	}
}

// settle is locate for item i of r. The first item of a holder, at the
// holder's first position in the window, fetches every item of the holder
// in one exchange, each into a staging buffer taken then; the exchange's
// time is that position's fetch, and the holder's later positions take
// none. A failed exchange is the first item's failed call and a miss of
// the rest, each a false positive (fetch's rule).
func (j *Job) settle(k access.SampleID, r *remoteRun, i int) (int, []byte, bool, error) {
	var err error
	if h := r.items[i].holder; i == 0 || r.items[i-1].holder != h {
		n := i
		for ; n < len(r.items) && r.items[n].holder == h; n++ {
			r.reqs[n].Buf = j.staging.Buffer(int(j.ds.Size(int(r.reqs[n].Sample))))
		}
		if err = j.runs.CallRun(j.ctx, h, r.reqs[i:n], r.resps[i:n]); err != nil {
			clear(r.resps[i:n])
		}
	}
	buf := r.reqs[i].Buf
	slot, data, err := j.remote(k, r.resps[i], err, buf)
	r.reqs[i].Buf, r.resps[i] = nil, transport.Response{}
	return slot, data, j.landed(data, buf, nil), err
}

// issueRead performs one filesystem read under the shared bandwidth model,
// into buf (which may be nil) when the dataset is a readerInto.
func (j *Job) issueRead(k access.SampleID, buf []byte) (data []byte, err error) {
	if r, ok := j.ds.(readerInto); ok {
		data, err = r.ReadSampleInto(int(k), buf)
	} else {
		data, err = j.ds.ReadSample(int(k))
	}
	if err == nil {
		err = j.pfs.Wait(j.ctx, int64(len(data)))
	}
	if err != nil {
		return nil, fmt.Errorf("nopfs: pfs read of %d: %w", k, err)
	}
	return data, nil
}
