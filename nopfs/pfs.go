package nopfs

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/storage"
)

// pfs wraps the Dataset with the shared-bandwidth limiter: the live
// system's parallel filesystem.
type pfs struct {
	ds      Dataset
	limiter *storage.Limiter
}

// read performs one PFS sample read under the bandwidth model. Canceling
// ctx interrupts the bandwidth wait.
func (p *pfs) read(ctx context.Context, id int32) ([]byte, error) {
	data, err := p.ds.ReadSample(int(id))
	if err != nil {
		return nil, err
	}
	if err := p.limiter.Wait(ctx, int64(len(data))); err != nil {
		return nil, err
	}
	return data, nil
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
// once. Every other sample has the staging path as its only reader and
// never touches the table.
func (j *Job) readPFS(k access.SampleID, staged bool) ([]byte, Source, error) {
	var (
		data   []byte
		err    error
		served bool // by another prefetcher's read
	)
	if c := j.assign.Local(j.rank, k); c < 0 {
		data, err = j.issueRead(k, staged)
	} else if f, leader := j.inflight.join(k); !leader {
		served = true
		data, err = f.wait(j.ctx)
	} else {
		if data, served, err = j.backends[c].Get(j.ctx, k); err == nil && !served {
			if data, err = j.issueRead(k, staged); err == nil {
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

// issueRead performs and counts one filesystem read, for the staging path
// (staged) or a class prefetcher.
func (j *Job) issueRead(k access.SampleID, staged bool) ([]byte, error) {
	j.pfsReads.Add(1)
	j.met.pfsRead(staged)
	data, err := j.pfs.read(j.ctx, k)
	if err != nil {
		return nil, fmt.Errorf("nopfs: pfs read of %d: %w", k, err)
	}
	return data, nil
}
