package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the harness can reach from outside the
// program. The prefix before the dot is the layer.
const (
	spanGrid      = "sweep.grid"
	spanCell      = "sweep.cell"
	spanEncode    = "sweep.encode"
	spanConfig    = "dataset.config"
	spanArtifacts = "plancache.artifacts"
	spanBuild     = "cachepolicy.build"
	spanSimRun    = "sim.run"

	spanCluster = "delivery.cluster"
	spanBatch   = "delivery.GetBatch"
	spanGet     = "delivery.Get"
	spanRead    = "dataset.ReadSample"
	spanBackGet = "backend.Get"
	spanBackPut = "backend.Put"
	spanBackHas = "backend.Has"
	spanCall    = "transport.Call"
	spanServe   = "transport.serve"
)

// noParent is the Parent of a span with no visible cause.
const noParent = uint32(0)

// traceFileCap bounds a trace file: a live repetition records over half a
// million spans, and the first hundred thousand show every pattern.
const traceFileCap = 100000

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch. Rank, Key and Occ form the request
// identifier shared by the spans of one request: the requesting rank (-1
// when the boundary cannot know it), the sample id or grid-cell index, and
// the occurrence of that (rank, key) pair within the run.
type span struct {
	ID, Parent uint32
	Name       string
	Start, End int64
	Rank, Key  int32
	Occ        int32
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory, sharded so concurrent ranks rarely share a
// lock; nothing is written until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32
	shards [16]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep shards on separate cache lines
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin reserves a span id and reads the clock.
func (t *tracer) begin() (id uint32, start int64) {
	return t.nextID.Add(1), t.now()
}

// end records the span. shard is any small integer that spreads
// concurrent recorders (the rank).
func (t *tracer) end(shard int, s span) {
	s.End = t.now()
	sh := &t.shards[uint(shard)%uint(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int64
	total float64 // seconds inside the spans
	self  float64 // seconds not covered by child spans
	durs  []float64
}

// aggregate folds spans into per-name statistics. A span's self time is its
// duration minus the part of its interval that its child spans cover
// (children may overlap each other, so the cover is a union).
func aggregate(spans []span) map[string]*layerStat {
	children := map[uint32][][2]int64{}
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*layerStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &layerStat{}
			agg[s.Name] = st
		}
		d := s.dur()
		st.count++
		st.total += float64(d) / 1e9
		st.self += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e9
		st.durs = append(st.durs, float64(d)/1e9)
	}
	return agg
}

// covered returns how many nanoseconds of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// stat returns the named layer's statistics (an empty value when the layer
// recorded nothing, so callers need no nil checks).
func stat(agg map[string]*layerStat, name string) *layerStat {
	if st := agg[name]; st != nil {
		return st
	}
	return &layerStat{}
}

// tracedRep is what one traced repetition leaves behind: its spans and their
// time origin, the layer metrics derived from them, and notes on those
// metrics (which percentile a tail metric reports).
type tracedRep struct {
	spans []span
	epoch time.Time
	layer map[string]float64
	notes map[string]string
}

// write writes the spans as JSON lines under dir: a header object, then one
// object per span (name, start, end, id, parent, request id). Files are
// capped at traceFileCap spans; the header says how many were dropped.
func (r tracedRep) write(dir, workload string) error {
	spans, epoch := r.spans, r.epoch
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	written := len(spans)
	if written > traceFileCap {
		written = traceFileCap
	}
	fmt.Fprintf(w, `{"workload":%q,"epoch_unix_ns":%d,"spans_total":%d,"spans_written":%d}`+"\n",
		workload, epoch.UnixNano(), len(spans), written)
	for _, s := range spans[:written] {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"req":"%d/%d/%d"}`+"\n",
			s.Name, s.Start, s.End, s.ID, s.Parent, s.Rank, s.Key, s.Occ)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
