package nopfs

import (
	"errors"
	"fmt"

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
// which keys the fault draw and the backoff (chaosEndpoint, resilientEndpoint). A holder's miss or failed call is a heuristic false positive
// (Sec. 5.2.2); an open circuit never reached the fabric, so it demotes to
// the PFS uncounted. buf is the payload's destination: a staging free-list
// buffer for the staging path's fetch of an unassigned sample, which passes
// through staging to the consumer alone, or a slice carved from the class a
// flight stores into. A remote payload lands in it if the fabric reads into
// Request.Buf, a PFS read if the dataset is a readerInto; the caller's
// landed tells, and hands back a buf that stayed unused.
func (j *Job) fetch(k access.SampleID, pos, holder int, buf []byte) (int, []byte, error) {
	if holder >= 0 {
		resp, err := j.net.Call(j.ctx, holder, transport.Request{Kind: transport.KindFetch, Sample: k, Value: uint64(pos), Buf: buf})
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
	}
	data, err := j.issueRead(k, buf)
	return len(j.backends) + slotPFS, data, err
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
