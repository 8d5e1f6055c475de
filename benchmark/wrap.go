package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/nopfs"
)

// This file holds the decorators the traced pass puts around the live
// layers it can reach from outside: the dataset (the PFS stand-in), the
// storage backend and the fabric. Untraced runs never touch them — they use
// the built-in "chan"/"tcp"/"mem" names and the bare dataset.

// Registry names of the traced variants.
const (
	tracedBackendKind = "bench-mem"
	tracedFabricChan  = "bench-chan"
	tracedFabricTCP   = "bench-tcp"
)

// liveTrace is the state the decorators of one traced repetition share. The
// registries are process-wide and filled once, so the factories find the
// current repetition's state through the active pointer.
type liveTrace struct {
	tr *tracer
	// occ[rank][sample] counts the rank's fetches of the sample: the
	// occurrence part of the request id. A fetch starts with the
	// requester's lookup in its first class.
	occ [][]atomic.Int32

	// calls matches a transport.serve span to the transport.Call that
	// caused it: first in, first out per (from, to, kind, sample).
	mu    sync.Mutex
	calls map[callKey][]uint32

	readBytes, callBytes atomic.Int64
	getHits              atomic.Int64
	callMisses, callErrs atomic.Int64
	deliveredOcc         [][]atomic.Int32
	firstSampleNs        atomic.Int64
}

type callKey struct {
	from, to int
	kind     uint8
	sample   int32
}

var (
	activeTrace  atomic.Pointer[liveTrace]
	registerOnce sync.Once
)

func newLiveTrace(tr *tracer, ranks, samples int) *liveTrace {
	lt := &liveTrace{tr: tr, calls: map[callKey][]uint32{}}
	lt.occ = make([][]atomic.Int32, ranks)
	lt.deliveredOcc = make([][]atomic.Int32, ranks)
	for r := range lt.occ {
		lt.occ[r] = make([]atomic.Int32, samples)
		lt.deliveredOcc[r] = make([]atomic.Int32, samples)
	}
	return lt
}

// fetchOcc is the occurrence part of a fabric request's id: the requester's
// current fetch of the sample (0 for the set-up value exchange).
func (lt *liveTrace) fetchOcc(from int, req transport.Request) int32 {
	if req.Kind != transport.KindFetch {
		return 0
	}
	return lt.occ[from][req.Sample].Load()
}

// registerTraced adds the traced backend kind and fabrics to the program's
// registries (once per process: they reject duplicates).
func registerTraced() {
	registerOnce.Do(func() {
		nopfs.RegisterBackend(tracedBackendKind, func(ctx context.Context, rank int, class nopfs.Class) (nopfs.StorageBackend, error) {
			mem, err := nopfs.BackendByKind(nopfs.BackendMemory)
			if err != nil {
				return nil, err
			}
			inner, err := mem(ctx, rank, class)
			if err != nil {
				return nil, err
			}
			return &tracedBackend{StorageBackend: inner, rank: rank, lt: activeTrace.Load()}, nil
		})
		nopfs.RegisterFabric(tracedFabric{name: tracedFabricChan, inner: nopfs.FabricChan})
		nopfs.RegisterFabric(tracedFabric{name: tracedFabricTCP, inner: nopfs.FabricTCP})
	})
}

// tracedOptions rewrites a repetition's options to go through the traced
// decorators and a metrics registry (for the program's own limiter and
// fetch-seconds series).
func tracedOptions(o nopfs.Options) nopfs.Options {
	classes := append([]nopfs.Class(nil), o.Classes...)
	for i := range classes {
		classes[i].Backend = tracedBackendKind
	}
	o.Classes = classes
	if o.Fabric == nopfs.FabricTCP {
		o.Fabric = tracedFabricTCP
	} else {
		o.Fabric = tracedFabricChan
	}
	if o.Metrics == nil {
		o.Metrics = nopfs.NewMetricsRegistry()
	}
	return o
}

// parentKey carries the serving span into the handler's context, so a
// backend lookup made on behalf of a peer is recorded as its child.
type parentKey struct{}

type servingSpan struct {
	id   uint32
	from int
}

// tracedDataset records dataset.ReadSample spans. The dataset is shared by
// all ranks, so the requesting rank is unknown (-1) at this boundary.
type tracedDataset struct {
	nopfs.Dataset
	lt *liveTrace
}

func (d *tracedDataset) ReadSample(id int) ([]byte, error) {
	sid, start := d.lt.tr.begin()
	data, err := d.Dataset.ReadSample(id)
	d.lt.readBytes.Add(int64(len(data)))
	d.lt.tr.end(id, span{ID: sid, Name: spanRead, Start: start, Rank: -1, Key: int32(id)})
	return data, err
}

// tracedBackend records backend.Get/Put/Has spans of one rank's class.
type tracedBackend struct {
	nopfs.StorageBackend
	rank int
	lt   *liveTrace
}

// request returns the span's parent and request id. A lookup under a
// serving span belongs to the peer's request; any other lookup is the
// rank's own, and a Get — the first step of a fetch — opens a new
// occurrence.
func (b *tracedBackend) request(ctx context.Context, id int32, opens bool) (parent uint32, rank, occ int32) {
	if sv, ok := ctx.Value(parentKey{}).(servingSpan); ok {
		return sv.id, int32(sv.from), b.lt.occ[sv.from][id].Load()
	}
	if opens {
		return noParent, int32(b.rank), b.lt.occ[b.rank][id].Add(1)
	}
	return noParent, int32(b.rank), b.lt.occ[b.rank][id].Load()
}

func (b *tracedBackend) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	parent, rank, occ := b.request(ctx, id, true)
	sid, start := b.lt.tr.begin()
	data, ok, err := b.StorageBackend.Get(ctx, id)
	if ok {
		b.lt.getHits.Add(1)
	}
	b.lt.tr.end(b.rank, span{ID: sid, Parent: parent, Name: spanBackGet, Start: start, Rank: rank, Key: id, Occ: occ})
	return data, ok, err
}

func (b *tracedBackend) Put(ctx context.Context, id int32, data []byte) (bool, error) {
	parent, rank, occ := b.request(ctx, id, false)
	sid, start := b.lt.tr.begin()
	ok, err := b.StorageBackend.Put(ctx, id, data)
	b.lt.tr.end(b.rank, span{ID: sid, Parent: parent, Name: spanBackPut, Start: start, Rank: rank, Key: id, Occ: occ})
	return ok, err
}

func (b *tracedBackend) Has(id int32) bool {
	sid, start := b.lt.tr.begin()
	ok := b.StorageBackend.Has(id)
	b.lt.tr.end(b.rank, span{ID: sid, Name: spanBackHas, Start: start, Rank: int32(b.rank), Key: id, Occ: b.lt.occ[b.rank][id].Load()})
	return ok
}

// tracedFabric builds the inner fabric and wraps every endpoint.
type tracedFabric struct {
	name, inner string
}

func (f tracedFabric) Name() string { return f.name }

func (f tracedFabric) Build(ctx context.Context, workers int, interconnectMBps float64) ([]nopfs.Endpoint, error) {
	inner, err := nopfs.FabricByName(f.inner)
	if err != nil {
		return nil, err
	}
	eps, err := inner.Build(ctx, workers, interconnectMBps)
	if err != nil {
		return nil, err
	}
	lt := activeTrace.Load()
	for i, e := range eps {
		eps[i] = &tracedEndpoint{Endpoint: e, lt: lt}
	}
	return eps, nil
}

// tracedEndpoint records transport.Call on the requester and
// transport.serve around the installed handler. It calls the inner Call
// exactly once: retrying is the program's business (resilience.Do).
type tracedEndpoint struct {
	nopfs.Endpoint
	lt *liveTrace
}

func (e *tracedEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	lt, from := e.lt, e.Rank()
	key := callKey{from: from, to: to, kind: req.Kind, sample: req.Sample}
	sid, start := lt.tr.begin()
	lt.mu.Lock()
	lt.calls[key] = append(lt.calls[key], sid)
	lt.mu.Unlock()

	resp, err := e.Endpoint.Call(ctx, to, req)

	switch {
	case err != nil:
		lt.callErrs.Add(1)
	case !resp.OK:
		lt.callMisses.Add(1)
	}
	lt.callBytes.Add(int64(len(resp.Data)))
	lt.tr.end(from, span{ID: sid, Name: spanCall, Start: start, Rank: int32(from), Key: req.Sample, Occ: lt.fetchOcc(from, req)})
	lt.mu.Lock()
	if i := slices.Index(lt.calls[key], sid); i >= 0 { // a call that never reached the peer leaves no stale entry
		lt.calls[key] = slices.Delete(lt.calls[key], i, i+1)
	}
	lt.mu.Unlock()
	return resp, err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	lt, to := e.lt, e.Rank()
	e.Endpoint.SetHandler(func(ctx context.Context, from int, req transport.Request) transport.Response {
		key := callKey{from: from, to: to, kind: req.Kind, sample: req.Sample}
		lt.mu.Lock()
		parent := noParent
		if q := lt.calls[key]; len(q) > 0 {
			parent = q[0]
			lt.calls[key] = q[1:]
		}
		lt.mu.Unlock()
		sid, start := lt.tr.begin()
		resp := h(context.WithValue(ctx, parentKey{}, servingSpan{id: sid, from: from}), from, req)
		lt.tr.end(to, span{ID: sid, Parent: parent, Name: spanServe, Start: start, Rank: int32(from), Key: req.Sample, Occ: lt.fetchOcc(from, req)})
		return resp
	})
}
