package nopfs

import (
	"fmt"

	"repro/internal/access"
)

// readerInto is a Dataset that reads into a caller's buffer. Only its reads
// can be recycled: any other ReadSample may return memory the dataset keeps,
// so its staged reads take no staging buffer.
type readerInto interface {
	ReadSampleInto(id int, buf []byte) ([]byte, error)
}

// readPFS is the filesystem leg of fetchSource. A sample this rank is
// assigned to cache has two would-be readers on the rank — its class
// prefetcher and the staging path — so its read goes through the in-flight
// table: the leader reads once and stores the bytes in the assigned class
// before it retires the flight (each path repairs the other's lag, paper
// Sec. 5.2.2), and whoever arrives meanwhile takes the leader's bytes as a
// local fetch. A leader re-checks the class first, because an earlier
// flight may have retired between this caller's backend miss and its table
// lookup; with that, a rank reads an assigned sample from the filesystem
// once, and the class keeps the buffer it was read into. Every other sample
// has the staging path as its only reader and never touches the table; a
// readerInto reads it into a staging free-list buffer, which passes through
// staging to the consumer alone, whose next step releases it (recycled, see
// fetchSource). The record counts a completed read at the pfs slot and a
// leader's bytes at the coalesced one.
func (j *Job) readPFS(k access.SampleID, issuer int) ([]byte, Source, bool, error) {
	var (
		data     []byte
		err      error
		served   bool // by another prefetcher's read
		recycled bool
	)
	if c := j.assign.Local(j.rank, k); c < 0 {
		var buf []byte
		if _, into := j.ds.(readerInto); into {
			buf = j.staging.Buffer(int(j.ds.Size(int(k))))
		}
		data, err = j.issueRead(k, buf)
		recycled = j.landed(data, buf)
	} else if f, leader := j.inflight.join(k); !leader {
		served = true
		data, err = f.wait(j.ctx)
	} else {
		if data, served, err = j.backends[c].Get(j.ctx, k); err == nil && !served {
			if data, err = j.issueRead(k, nil); err == nil {
				_, err = j.backends[c].Put(j.ctx, k, data)
			}
		}
		j.inflight.retire(k, data, err)
	}
	switch {
	case err != nil && j.ctx.Err() != nil:
		return nil, SourcePFS, false, errJobClosed
	case err != nil:
		return nil, SourcePFS, false, err
	case served:
		j.rec.served[issuer][len(j.backends)+slotCoalesced].Add(1)
		return data, SourceLocal, false, nil
	}
	j.rec.served[issuer][len(j.backends)+slotPFS].Add(1)
	return data, SourcePFS, recycled, nil
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
