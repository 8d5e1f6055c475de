package nopfs

import (
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// readerInto is a Dataset that reads into a caller's buffer. Only its reads
// can be recycled: any other ReadSample may return memory the dataset keeps,
// so its staged reads take no staging buffer.
type readerInto interface {
	ReadSampleInto(id int, buf []byte) ([]byte, error)
}

// fetch is fetchSource's leg past the local classes: holder (-1: none)
// serves k if it has a copy, else the PFS does; it returns the record slot
// that served. A holder's miss or failed call is a heuristic false positive
// (Sec. 5.2.2); an open circuit never reached the fabric, so it demotes to
// the PFS uncounted. recycle asks for the payload in a staging free-list
// buffer, which passes through staging to the consumer alone, whose next
// step releases it (recycled): the staging path's fetches of unassigned
// samples, as a flight's bytes stay in the class. A remote payload lands
// there if the fabric reads into Request.Buf, a PFS read if the dataset is
// a readerInto.
func (j *Job) fetch(k access.SampleID, holder int, recycle bool) (int, []byte, bool, error) {
	size := func() int { return int(j.ds.Size(int(k))) }
	if holder >= 0 {
		req := transport.Request{Kind: transport.KindFetch, Sample: k}
		if recycle {
			req.Buf = j.staging.Buffer(size())
		}
		resp, err := j.net.Call(j.ctx, holder, req)
		recycled := j.landed(resp.Data, req.Buf)
		switch {
		case err == nil && resp.OK:
			return len(j.backends) + slotRemote, resp.Data, recycled, nil
		case err != nil && j.ctx.Err() != nil:
			return 0, nil, false, errJobClosed // our own context ended: not a miss
		case !errors.Is(err, resilience.ErrCircuitOpen):
			j.rec.falsePos.Add(1)
		}
		if j.isClosed() {
			return 0, nil, false, errJobClosed
		}
	}
	var buf []byte
	if _, into := j.ds.(readerInto); into && recycle {
		buf = j.staging.Buffer(size())
	}
	data, err := j.issueRead(k, buf)
	return len(j.backends) + slotPFS, data, j.landed(data, buf), err
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
