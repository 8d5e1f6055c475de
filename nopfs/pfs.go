package nopfs

import (
	"fmt"

	"repro/internal/access"
)

// readerInto is a Dataset that reads into a caller's buffer. Only its reads
// are recycled: any other ReadSample may return memory the dataset keeps.
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
// has the staging path as its only reader and never touches the table; its
// read goes into a recycled buffer (see recycles).
func (j *Job) readPFS(k access.SampleID, staged bool) ([]byte, Source, error) {
	var (
		data   []byte
		err    error
		served bool // by another prefetcher's read
	)
	if c := j.assign.Local(j.rank, k); c < 0 {
		var buf []byte
		if j.recycles(k) {
			buf = j.staging.Buffer(int(j.ds.Size(int(k))))
		}
		data, err = j.issueRead(k, staged, buf)
	} else if f, leader := j.inflight.join(k); !leader {
		served = true
		data, err = f.wait(j.ctx)
	} else {
		if data, served, err = j.backends[c].Get(j.ctx, k); err == nil && !served {
			if data, err = j.issueRead(k, staged, nil); err == nil {
				_, err = j.backends[c].Put(j.ctx, k, data)
			}
		}
		j.inflight.retire(k, data, err)
	}
	switch {
	case err != nil && j.ctx.Err() != nil:
		return nil, SourcePFS, errJobClosed
	case err != nil:
		return nil, SourcePFS, err
	case served:
		j.pfsCoalesced.Add(1)
		j.met.coalesced()
		return data, SourceLocal, nil
	}
	return data, SourcePFS, nil
}

// recycles reports whether k's PFS reads go into the staging free list's
// buffers: k has one reader, the staging path, so its buffer passes from the
// read through staging to the consumer alone, whose next step releases it.
func (j *Job) recycles(k access.SampleID) bool {
	_, into := j.ds.(readerInto)
	return into && j.assign.Local(j.rank, k) < 0
}

// issueRead performs and counts one filesystem read under the shared
// bandwidth model, for the staging path (staged) or a class prefetcher, into
// buf (which may be nil) when the dataset is a readerInto.
func (j *Job) issueRead(k access.SampleID, staged bool, buf []byte) (data []byte, err error) {
	j.pfsReads.Add(1)
	j.met.pfsRead(staged)
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
