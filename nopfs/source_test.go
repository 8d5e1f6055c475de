package nopfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/invariant"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
	"repro/internal/storage"
	"repro/internal/transport"
)

// sourceLocation maps a delivered sample's source to the law's vocabulary.
var sourceLocation = map[Source]perfmodel.Location{
	SourcePFS: perfmodel.LocPFS, SourceRemote: perfmodel.LocRemote, SourceLocal: perfmodel.LocLocal,
}

// sourceOptions is the source-law shape: 3 epochs over 96 samples of about
// 2 KiB, and per rank 48 KiB of cache split over the given class count, so
// the placement leaves every rank local, remote and PFS positions.
func sourceOptions(seed uint64, fabric, pattern string, classes int) Options {
	opts := baseOptions()
	opts.Seed, opts.Fabric, opts.Access = seed, fabric, pattern
	opts.Classes = nil
	for c := 0; c < classes; c++ {
		opts.Classes = append(opts.Classes, Class{Name: fmt.Sprintf("c%d", c), CapacityBytes: 48 << 10 / int64(classes), Threads: 2})
	}
	return opts
}

// sourceTable counts stream positions by the source their tag names (row)
// and the source that served them (column), indexed by perfmodel.Location.
type sourceTable [3][3]int

// String renders the table one tagged source per line.
func (tb sourceTable) String() string {
	var b strings.Builder
	for want := perfmodel.LocLocal; want >= perfmodel.LocPFS; want-- {
		fmt.Fprintf(&b, "\n  tag %-6s → local %5d  remote %5d  pfs %5d", want,
			tb[want][perfmodel.LocLocal], tb[want][perfmodel.LocRemote], tb[want][perfmodel.LocPFS])
	}
	return b.String()
}

// checkSources runs a 3-rank cluster and checks each rank's delivered
// sources against the tags it followed (invariant.CheckSourceAgreement).
// It also checks that every false positive the law counts on the staging
// path is one the rank counted (a crashed holder's promise is gone from the
// tags, not demoted uncounted), and, without crashes, that each rank's
// classes end holding exactly the placement's bytes: a fetch that serves an
// assigned sample from outside its class stores it there. It returns the
// ranks' tag → source table.
func checkSources(t *testing.T, opts Options, crashes bool) sourceTable {
	t.Helper()
	const workers, f = 3, 96
	type rankRun struct {
		tags     []byte
		stream   []access.SampleID
		observed []perfmodel.Location
	}
	var (
		mu     sync.Mutex
		assign *cachepolicy.Assignment
		runs   = make([]rankRun, workers)
	)
	stats, err := RunCluster(bg, testDataset(t, f), workers, opts, func(ctx context.Context, j *Job) error {
		var observed []perfmodel.Location
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			observed = append(observed, sourceLocation[s.Source])
		}
		mu.Lock()
		assign, runs[j.rank] = j.assign, rankRun{j.tags, j.stream, observed}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var table sourceTable
	for r, run := range runs {
		n, err := invariant.CheckSourceAgreement(run.tags, run.observed, run.stream,
			func(k access.SampleID) bool { return assign.Local(r, k) >= 0 })
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		for f, tag := range run.tags {
			want := perfmodel.LocPFS
			if tag&0x0f != 0 {
				want = perfmodel.LocLocal
			} else if tag>>4 != 0 {
				want = perfmodel.LocRemote
			}
			table[want][run.observed[f]]++
		}
		if s := stats[r]; int64(n.FalsePositives) > s.RemoteFalsePositives {
			t.Errorf("rank %d: %d staged false positives, Stats counts %d", r, n.FalsePositives, s.RemoteFalsePositives)
		}
		if crashes {
			continue // a crashed rank caches only what its pre-crash prefix reached
		}
		if got, want := stats[r].CachedBytes, assign.CachedBytes[r]; got != want {
			t.Errorf("rank %d: classes hold %d bytes, the placement %d", r, got, want)
		}
	}
	return table
}

// TestSourceAgreement runs the source law over uniform plans, every access
// preset and an elastic schedule, on one and two classes, over the chan and
// TCP fabrics. Late locals are allowed: a repeat can be fetched before its
// first touch's flight starts.
func TestSourceAgreement(t *testing.T) {
	patterns := append([]string{"", "elastic:join=2@1,leave=0@2"}, access.PresetNames()...)
	for _, fabric := range []string{FabricChan, FabricTCP} {
		for classes := 1; classes <= 2; classes++ {
			for _, pattern := range patterns {
				t.Run(fmt.Sprintf("%s/%d/%s", fabric, classes, pattern), func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						checkSources(t, sourceOptions(seed, fabric, pattern, classes), false)
					}
				})
			}
		}
	}
}

// TestSourceAgreementUnderCrash checks the law's categories on survivors
// that absorb a crashed rank's plan rounds, uniform and zipf.
func TestSourceAgreementUnderCrash(t *testing.T) {
	crash, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"", "zipf"} {
		for seed := uint64(1); seed <= 3; seed++ {
			opts := sourceOptions(seed, FabricChan, pattern, 2)
			opts.Chaos = crash
			checkSources(t, opts, true)
		}
	}
}

// prestagedRun is one rank of a prestaged cluster: its stream, the source
// each position is expected from (prestagedTags) and the one that served it.
type prestagedRun struct {
	stream   []access.SampleID
	want     []byte
	observed []perfmodel.Location
	assigned func(access.SampleID) bool
}

// runPrestaged runs a prestaged 3-rank cluster of the source-law shape and
// returns its ranks' runs. A rank the schedule crashes drains only once
// every survivor has: a live crash lands when the crashed rank reaches its
// epoch, which nothing aligns with its peers', and a survivor still fetching
// an earlier epoch from it would find its endpoint closed. So every holder a
// tag names is there to serve.
func runPrestaged(t *testing.T, opts Options) []prestagedRun {
	t.Helper()
	const workers, f = 3, 96
	opts.prestage = true
	sched := opts.Chaos.Compile(opts.Seed)
	var survivors sync.WaitGroup
	for r := 0; r < workers; r++ {
		if sched.CrashEpoch(r, workers) < 0 {
			survivors.Add(1)
		}
	}
	drained := make(chan struct{})
	go func() { survivors.Wait(); close(drained) }()
	runs := make([]prestagedRun, workers)
	_, err := RunCluster(bg, testDataset(t, f), workers, opts, func(ctx context.Context, j *Job) error {
		if j.crashEpoch < 0 {
			defer survivors.Done()
		} else {
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				return errors.New("the survivors never drained")
			}
		}
		var observed []perfmodel.Location
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			observed = append(observed, sourceLocation[s.Source])
		}
		runs[j.rank] = prestagedRun{j.stream, prestagedTags(j), observed,
			func(k access.SampleID) bool { return j.assign.Local(j.rank, k) >= 0 }}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestPrestagedSourceAgreement is the exact source law: on a prestaged run
// no class fill races the staging path, so every position is served from
// its expected source and the law counts no timing outcome at all — for
// every access preset over the chan and TCP fabrics, and on survivors that
// absorb a crashed rank's rounds. The elastic preset runs without the
// crash: node-crash takes rank 1 down at the epoch it joins, so it never
// fills, while the tags still promise its copies at epoch-0 positions.
func TestPrestagedSourceAgreement(t *testing.T) {
	crash, err := chaos.ParseProfile("node-crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, fabric := range []string{FabricChan, FabricTCP} {
		for _, pattern := range append([]string{""}, access.PresetNames()...) {
			for _, prof := range []chaos.Profile{{}, crash} {
				if pattern == "elastic" && !prof.Empty() {
					continue
				}
				opts := sourceOptions(1, fabric, pattern, 2)
				opts.Chaos = prof
				for r, run := range runPrestaged(t, opts) {
					n, err := invariant.CheckSourceAgreement(run.want, run.observed, run.stream, run.assigned)
					if err != nil || n != (invariant.SourceMismatches{}) {
						t.Errorf("%s/%q/%s rank %d: mismatches %+v, %v", fabric, pattern, prof.Label(), r, n, err)
					}
				}
			}
		}
	}
}

// TestPrestagedFabricFaults is the fabric-fault law on prestaged runs under
// flaky-fabric, meltdown and drop:0.3, over the chan and TCP fabrics. A
// fetch is drawn by the stream position it serves and its attempt
// (chaos.Schedule.FabricCall), so the positions a fault sends from an
// expected holder to the PFS are a function of the seed: under the zero
// policy exactly those whose attempt 0 fails, and two runs serve every
// position alike; under the default policy, on flaky-fabric and meltdown,
// exactly those whose three attempts all fail. Every other position is
// served from its expected source. A position an open circuit refused is
// named in the failure.
func TestPrestagedFabricFaults(t *testing.T) {
	const seed = 2
	for _, fabric := range []string{FabricChan, FabricTCP} {
		for _, name := range []string{"flaky-fabric", "meltdown", "drop:0.3"} {
			prof, err := chaos.ParseProfile(name)
			if err != nil {
				t.Fatal(err)
			}
			sched := prof.Compile(seed)
			policies := []ResiliencePolicy{{}}
			if prof.Fabric.FailRate < 0.1 {
				policies = append(policies, DefaultResilience())
			}
			for _, pol := range policies {
				attempts := max(pol.MaxAttempts, 1)
				opts := sourceOptions(seed, fabric, "", 2)
				opts.Chaos, opts.Resilience = prof, pol
				runs := runPrestaged(t, opts)
				faulted := 0
				for r, run := range runs {
					for p, tag := range run.want {
						want, got := sourceLocation[tagSource(tag)], run.observed[p]
						if want == perfmodel.LocRemote {
							failed := true // every attempt's draw fails
							for a := 0; a < attempts && failed; a++ {
								_, failed = sched.FabricCall(r, uint64(p), uint64(a))
							}
							if failed {
								want = perfmodel.LocPFS
								faulted++
							}
						}
						if got != want {
							t.Errorf("%s/%s, %d attempts: rank %d position %d (tag %#02x): %s served it, the draws say %s (a refusal by an open circuit?)",
								fabric, name, attempts, r, p, tag, got, want)
						}
					}
				}
				t.Logf("%s/%s, %d attempts: %d positions faulted to the PFS", fabric, name, attempts, faulted)
				if faulted == 0 && attempts == 1 {
					t.Errorf("%s/%s: no remote fetch failed (the test lost its subject)", fabric, name)
				}
				if attempts > 1 {
					continue
				}
				for r, again := range runPrestaged(t, opts) {
					if !slices.Equal(again.observed, runs[r].observed) {
						t.Errorf("%s/%s: rank %d served its positions differently in a second run", fabric, name, r)
					}
				}
			}
		}
	}
}

// getCounter counts a backend's Get calls: the fetch path's class probes and
// the lookups it serves peers.
type getCounter struct {
	StorageBackend
	gets *atomic.Int64
}

func (b getCounter) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	b.gets.Add(1)
	return b.StorageBackend.Get(ctx, id)
}

// The "test-get-counting" kind is registered once per process, like
// "test-counting" (see TestCustomBackendKind).
var (
	getCountingOnce sync.Once
	getCountingGets atomic.Int64
)

// TestFetchPathProbe measures what following the tags saves: backend Get
// calls per delivered sample on small versions of the benchmark's
// live_chan and live_pfs_bound shapes (below one: a fetch probes at most
// its tagged class, a peer serve only the assigned one), and, per access
// pattern, the ranks' tag → source table on the source-law shape. Run it
// with -v to read both.
func TestFetchPathProbe(t *testing.T) {
	getCountingOnce.Do(func() {
		RegisterBackend("test-get-counting", func(_ context.Context, _ int, c Class) (StorageBackend, error) {
			return getCounter{StorageBackend: storage.NewMemory(c.Name, c.CapacityBytes, nil, nil), gets: &getCountingGets}, nil
		})
	})
	for _, shape := range []struct {
		name  string
		ranks int
		spec  dataset.Spec
		opts  Options
	}{
		{"live_chan", 2, dataset.Spec{Name: "probe-chan", F: 1024, MeanSize: 8 << 10, StddevSize: 2 << 10, Classes: 16, Seed: 7},
			NewOptions(WithEpochs(6), WithClasses(Class{Name: "ram", CapacityBytes: 3 << 20, Threads: 1, Backend: "test-get-counting"}))},
		{"live_pfs_bound", 4, dataset.Spec{Name: "probe-pfs", F: 512, MeanSize: 16 << 10, StddevSize: 4 << 10, Classes: 16, Seed: 7},
			NewOptions(WithEpochs(3), WithPFSBandwidth(64), WithClasses(Class{Name: "ram", CapacityBytes: 1 << 20, Threads: 1, Backend: "test-get-counting"}))},
	} {
		opts := shape.opts
		opts.BatchPerWorker, opts.StagingBytes, opts.StagingThreads = 16, 4<<20, 2
		before := getCountingGets.Load()
		stats, err := RunCluster(bg, dataset.MustNew(shape.spec), shape.ranks, opts, DrainAll(nil))
		if err != nil {
			t.Fatal(err)
		}
		var delivered int64
		for _, s := range stats {
			delivered += s.Delivered
		}
		per := float64(getCountingGets.Load()-before) / float64(delivered)
		t.Logf("%s shape: %.2f backend Gets per delivered sample", shape.name, per)
		if per >= 1 {
			t.Errorf("%s shape: %.2f backend Gets per delivered sample, want below 1", shape.name, per)
		}
	}
	for _, pattern := range append([]string{""}, access.PresetNames()...) {
		t.Logf("pattern %q:%v", pattern, checkSources(t, sourceOptions(1, FabricChan, pattern, 2), false))
	}
}

// TestHandleServesTheAssignedClass pins a peer serve after a full run: a
// sample is served exactly when the placement assigns it to the rank (its
// class holds every assigned sample, and nothing else), and an id outside
// the dataset, which a TCP peer can send, is a miss rather than a panic.
func TestHandleServesTheAssignedClass(t *testing.T) {
	const f = 96
	_, err := RunCluster(bg, testDataset(t, f), 3, sourceOptions(1, FabricChan, "", 2), func(ctx context.Context, j *Job) error {
		for _, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
		}
		for _, k := range []access.SampleID{-1, f, 1 << 30} {
			if j.handle(ctx, 0, transport.Request{Kind: transport.KindFetch, Sample: k}).OK {
				return fmt.Errorf("rank %d served sample %d, outside the dataset", j.rank, k)
			}
		}
		for k := range access.SampleID(f) {
			ok := j.handle(ctx, 0, transport.Request{Kind: transport.KindFetch, Sample: k}).OK
			if want := j.assign.Local(j.rank, k) >= 0; ok != want {
				return fmt.Errorf("rank %d: sample %d served %v, assigned %v", j.rank, k, ok, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fetchRecorder keeps one rank's KindFetch calls: the callee, the sample
// and the stream position (Request.Value) of each.
type fetchRecorder struct {
	mu      sync.Mutex
	to      []int
	samples []access.SampleID
	pos     []uint64
}

// recordingEndpoint records its rank's fetch calls before it makes them.
type recordingEndpoint struct {
	transport.Network
	rec *fetchRecorder
}

func (e recordingEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	if req.Kind == transport.KindFetch {
		e.rec.mu.Lock()
		e.rec.to, e.rec.samples = append(e.rec.to, to), append(e.rec.samples, req.Sample)
		e.rec.pos = append(e.rec.pos, req.Value)
		e.rec.mu.Unlock()
	}
	return e.Network.Call(ctx, to, req)
}

// recordingFabric is the chan fabric with every endpoint recording, for the
// last cluster it built. It is registered once per process.
type recordingFabric struct{ recs []*fetchRecorder }

func (*recordingFabric) Name() string { return "test-recording" }

func (f *recordingFabric) Build(ctx context.Context, workers int, interconnectMBps float64) ([]Endpoint, error) {
	eps, err := chanFabric{}.Build(ctx, workers, interconnectMBps)
	if err != nil {
		return nil, err
	}
	f.recs = make([]*fetchRecorder, workers)
	for i, ep := range eps {
		f.recs[i] = &fetchRecorder{}
		eps[i] = recordingEndpoint{Network: ep, rec: f.recs[i]}
	}
	return eps, nil
}

var (
	recordingOnce sync.Once
	recording     = &recordingFabric{}
)

// checkCrashedHolderCalls checks one job's recorded fetch calls and its
// tags against the crash rule, and returns how many promises of a crashed
// holder its tags lost. The tags' law makes every staged fetch name the
// holder the per-fetch check in locate named before the rule moved there.
func checkCrashedHolderCalls(t *testing.T, j *Job, rec *fetchRecorder) (cleared int) {
	t.Helper()
	err := invariant.CheckCrashedHolderCalls(rec.to, rec.samples, j.stream, j.epochEnds,
		func(k access.SampleID) bool { return j.assign.Local(j.rank, k) >= 0 },
		func(h int) int { return j.chaosSched.CrashEpoch(h, j.plan.N) })
	if err != nil {
		t.Errorf("rank %d: %v", j.rank, err)
	}
	plain := j.assign.Tags(j.rank, j.stream, nil)
	holder := func(f int) int {
		_, h := j.assign.RemoteAvail(j.rank, j.stream[f], int32(f))
		return h
	}
	if err := invariant.CheckCrashTags(plain, j.tags, holder, j.holderGone); err != nil {
		t.Errorf("rank %d: %v", j.rank, err)
	}
	for p := range plain {
		if plain[p] != j.tags[p] {
			cleared++
		}
	}
	return cleared
}

// TestCrashedHolderNeverCalled is the live half of the crash rule
// (invariant.CheckCrashedHolderCalls): a 3-rank chan cluster under crash:1@1
// never calls rank 1 for a position in epoch 1 or later, on the staging path
// or in a class fill, uniform, zipf, and with rank 2 joining at epoch 1, when
// each of its positions lies in epoch 1 or later. A cluster's class fills
// run before the staging progress names many peers, so the last case also
// runs rank 2's fills alone, from a staging position well into its stream;
// each of their calls carries its sample's first access, the position the
// fabric draws a fill at. Each cluster's tags must have lost some promise
// of rank 1.
func TestCrashedHolderNeverCalled(t *testing.T) {
	recordingOnce.Do(func() { RegisterFabric(recording) })
	crash, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	const workers, f, joins = 3, 96, "elastic:join=2@1"
	for _, pattern := range []string{"", "zipf", joins} {
		for seed := uint64(1); seed <= 3; seed++ {
			opts := sourceOptions(seed, recording.Name(), pattern, 2)
			opts.Chaos = crash
			var mu sync.Mutex
			jobs := make([]*Job, workers)
			if _, err := RunCluster(bg, testDataset(t, f), workers, opts, func(ctx context.Context, j *Job) error {
				mu.Lock()
				jobs[j.rank] = j
				mu.Unlock()
				return DrainAll(nil)(ctx, j)
			}); err != nil {
				t.Fatal(err)
			}
			cleared := 0
			for r, j := range jobs {
				cleared += checkCrashedHolderCalls(t, j, recording.recs[r])
			}
			if cleared == 0 {
				t.Errorf("pattern %q, seed %d: the crash cleared no promise of rank 1 (the test lost its subject)", pattern, seed)
			}
		}
	}
	// Rank 2's class fills alone, from a quarter into its stream, on a
	// cache that overlaps rank 1's: some fill would find rank 1 holding its
	// sample by then.
	for seed := uint64(1); seed <= 3; seed++ {
		opts := sourceOptions(seed, FabricChan, joins, 1)
		opts.Classes[0].CapacityBytes, opts.Chaos = 96<<10, crash
		rec := &fetchRecorder{}
		j, err := newJob(bg, testDataset(t, f), 2, workers, opts.withDefaults(), recordingEndpoint{Network: &nullEndpoint{}, rec: rec}, nil, plancache.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		pos, fill, promised := len(j.stream)/4, j.assign.FillOrder[2][0], 0
		for _, k := range fill {
			if _, h := j.assign.RemoteAvail(2, k, int32(pos)); h == 1 && int(j.assign.LocalPos(2, k)) >= pos {
				promised++
			}
		}
		if promised == 0 {
			t.Errorf("fill, seed %d: no fill finds rank 1 holding its sample (the test lost its subject)", seed)
		}
		j.progress.Store(int64(pos))
		var next atomic.Int64
		j.wg.Add(1)
		j.classPrefetcher(0, fill, &next)
		checkCrashedHolderCalls(t, j, rec)
		for i, k := range rec.samples {
			if want := uint64(j.assign.LocalPos(2, k)); rec.pos[i] != want {
				t.Errorf("fill, seed %d: sample %d's fill sent position %d, its first access is %d", seed, k, rec.pos[i], want)
			}
		}
		j.Close()
	}
}
