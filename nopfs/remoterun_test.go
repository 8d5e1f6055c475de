package nopfs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// exchangeLog keeps one rank's outbound fetch exchanges: the samples and
// stream positions each carried, and its error.
type exchangeLog struct {
	mu      sync.Mutex
	samples [][]access.SampleID
	pos     [][]uint64
	errs    []error
}

func (l *exchangeLog) add(reqs []transport.Request, err error) {
	ks, ps := make([]access.SampleID, len(reqs)), make([]uint64, len(reqs))
	for i, r := range reqs {
		ks[i], ps[i] = r.Sample, r.Value
	}
	l.mu.Lock()
	l.samples, l.pos, l.errs = append(l.samples, ks), append(l.pos, ps), append(l.errs, err)
	l.mu.Unlock()
}

// loggedTCP is a raw TCP endpoint that logs its fetch exchanges and keeps
// the run method, forwarding it. It closes itself when it is asked for the
// fetch that closeOn names (closeKey; -1: none), in the middle of whatever
// exchange carries it.
type loggedTCP struct {
	*transport.TCPEndpoint
	log     *exchangeLog
	closeOn *atomic.Int64
}

// closeKey names a fetch by its sample and the stream position it serves.
func closeKey(k access.SampleID, pos uint64) int64 { return int64(k)<<32 | int64(pos) }

func (e loggedTCP) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	resp, err := e.TCPEndpoint.Call(ctx, to, req)
	if req.Kind == transport.KindFetch {
		e.log.add([]transport.Request{req}, err)
	}
	return resp, err
}

func (e loggedTCP) CallRun(ctx context.Context, to int, reqs []transport.Request, resps []transport.Response) error {
	err := e.TCPEndpoint.CallRun(ctx, to, reqs, resps)
	e.log.add(reqs, err)
	return err
}

func (e loggedTCP) SetHandler(h transport.Handler) {
	e.TCPEndpoint.SetHandler(func(ctx context.Context, from int, req transport.Request) transport.Response {
		if req.Kind == transport.KindFetch && closeKey(req.Sample, req.Value) == e.closeOn.Load() {
			e.TCPEndpoint.Close()
		}
		return h(ctx, from, req)
	})
}

// loggedTCPFabric is the TCP fabric with every endpoint a loggedTCP, for the
// last cluster it built. It is registered once per process.
type loggedTCPFabric struct {
	logs    []*exchangeLog
	closeOn atomic.Int64
}

func (*loggedTCPFabric) Name() string { return "test-logged-tcp" }

func (f *loggedTCPFabric) Build(ctx context.Context, workers int, interconnectMBps float64) ([]Endpoint, error) {
	eps, err := tcpFabric{}.Build(ctx, workers, interconnectMBps)
	if err != nil {
		return nil, err
	}
	f.logs = make([]*exchangeLog, workers)
	for i, ep := range eps {
		f.logs[i] = &exchangeLog{}
		eps[i] = loggedTCP{TCPEndpoint: ep.(*transport.TCPEndpoint), log: f.logs[i], closeOn: &f.closeOn}
	}
	return eps, nil
}

var (
	loggedTCPOnce sync.Once
	loggedTCPFab  = &loggedTCPFabric{}
)

// loggedRun is one rank of a prestaged two-rank run over loggedTCPFabric:
// its job, the sample and source it delivered per position, and its stats.
type loggedRun struct {
	j        *Job
	ids      []access.SampleID
	observed []Source
}

// runLogged runs a prestaged two-rank cluster of the source-law shape, with
// 16-position staging runs and the given staging budget, over
// loggedTCPFabric; closeOn is the fetch whose request closes its holder
// (closeKey; -1: none).
func runLogged(t *testing.T, stagingBytes, closeOn int64) ([]loggedRun, []Stats) {
	t.Helper()
	loggedTCPOnce.Do(func() { RegisterFabric(loggedTCPFab) })
	loggedTCPFab.closeOn.Store(closeOn)
	opts := sourceOptions(3, loggedTCPFab.Name(), "", 2)
	opts.BatchPerWorker, opts.StagingBytes, opts.prestage = 16, stagingBytes, true
	runs := make([]loggedRun, 2)
	stats, err := RunCluster(bg, testDataset(t, 96), 2, opts, func(ctx context.Context, j *Job) error {
		run := loggedRun{j: j}
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			run.ids, run.observed = append(run.ids, access.SampleID(s.ID)), append(run.observed, s.Source)
		}
		runs[j.Rank()] = run
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, run := range runs {
		if len(run.ids) != len(run.j.stream) {
			t.Fatalf("rank %d delivered %d samples, its stream has %d", r, len(run.ids), len(run.j.stream))
		}
		for p, k := range run.j.stream {
			if run.ids[p] != k {
				t.Fatalf("rank %d position %d: delivered sample %d, the stream has %d", r, p, run.ids[p], k)
			}
		}
	}
	return runs, stats
}

// staged returns the logged exchanges of rank r that the staging path made:
// those of samples its classes are not assigned (a class fill fetches only
// assigned ones).
func staged(run loggedRun, log *exchangeLog) (pos [][]uint64, errs []error) {
	for i, ks := range log.samples {
		if run.j.assign.Local(run.j.rank, ks[0]) < 0 {
			pos, errs = append(pos, log.pos[i]), append(errs, log.errs[i])
		}
	}
	return pos, errs
}

// TestRemoteRunsOneExchangePerHolder: on a prestaged two-rank TCP run, a
// rank fetches a staging window's remote positions in at most one exchange
// per holder, and every position is still served from the source its tags
// and placement name. Under the 64 KiB budget a window is one run; under
// 1 MiB it is at least four, and a holder's items of a window's runs share
// exchanges, so there are fewer than the (run, holder) pairs.
func TestRemoteRunsOneExchangePerHolder(t *testing.T) {
	for _, tc := range []struct {
		name         string
		stagingBytes int64
		minRuns      int // runs per window
	}{
		{"one-run", 64 << 10, 1},
		{"multi-run", 1 << 20, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs, stats := runLogged(t, tc.stagingBytes, -1)
			for r, run := range runs {
				j := run.j
				n, w := j.opts.BatchPerWorker, j.window()
				if w < tc.minRuns*n {
					t.Fatalf("rank %d: a window of %d positions, want at least %d runs of %d", r, w, tc.minRuns, n)
				}
				windowPairs, runPairs := map[[2]int]bool{}, map[[2]int]bool{}
				want := map[Source]int64{}
				for p, tag := range prestagedTags(j) {
					want[tagSource(tag)]++
					if tagSource(tag) == SourceRemote {
						_, h := j.assign.RemoteAvail(r, j.stream[p], int32(p))
						windowPairs[[2]int{p / w, h}] = true
						runPairs[[2]int{p / n, h}] = true
					}
					if run.observed[p] != tagSource(tag) {
						t.Errorf("rank %d position %d: served from %s, expected %s", r, p, run.observed[p], tagSource(tag))
					}
				}
				for _, src := range []Source{SourceLocal, SourceRemote, SourcePFS} {
					if stats[r].Fetches[src] != want[src] {
						t.Errorf("rank %d: %d %s fetches, its tags and placement name %d", r, stats[r].Fetches[src], src, want[src])
					}
				}
				exchanges, _ := staged(run, loggedTCPFab.logs[r])
				t.Logf("rank %d: %d-run windows, %d remote positions in %d staged exchanges, %d (window, holder) and %d (run, holder) pairs",
					r, w/n, want[SourceRemote], len(exchanges), len(windowPairs), len(runPairs))
				if len(exchanges) > len(windowPairs) {
					t.Errorf("rank %d: %d staged exchanges, more than its %d (window, holder) pairs", r, len(exchanges), len(windowPairs))
				}
				if w > n && len(exchanges) >= len(runPairs) {
					t.Errorf("rank %d: %d staged exchanges, not fewer than its %d (run, holder) pairs", r, len(exchanges), len(runPairs))
				}
				if len(runPairs) == 0 {
					t.Errorf("rank %d fetched nothing remotely (the test lost its subject)", r)
				}
			}
		})
	}
}

// TestRemoteRunHolderClosedMidExchange closes a TCP holder while it serves
// the last item of a run: every item of that exchange is a false positive
// served from the PFS, as is every later remote position of both ranks
// (one holder is closed, the other calls through a closed endpoint), and
// each rank still delivers its stream exactly once.
func TestRemoteRunHolderClosedMidExchange(t *testing.T) {
	// The run to cut short is a real one of the fault-free run: its
	// holder closes at its last sample.
	clean, _ := runLogged(t, 64<<10, -1)
	var cut []uint64
	exchanges, _ := staged(clean[0], loggedTCPFab.logs[0])
	for _, pos := range exchanges {
		if len(pos) > 1 {
			cut = pos
			break
		}
	}
	if cut == nil {
		t.Fatal("rank 0 made no run of two or more fetches (the test lost its subject)")
	}
	last := cut[len(cut)-1]
	runs, stats := runLogged(t, 64<<10, closeKey(clean[0].j.stream[last], last))
	for r, run := range runs {
		var lost int64
		for p, tag := range prestagedTags(run.j) {
			if tagSource(tag) == SourceRemote && run.observed[p] == SourcePFS {
				lost++
			}
		}
		if got := stats[r].RemoteFalsePositives; got != lost {
			t.Errorf("rank %d: %d false positives, %d remote positions served from the PFS", r, got, lost)
		}
	}
	pos, errs := staged(runs[0], loggedTCPFab.logs[0])
	failed := false
	for i := range pos {
		if len(pos[i]) == len(cut) && pos[i][0] == cut[0] {
			failed = errs[i] != nil && errors.Is(errs[i], transport.ErrUnreachable)
		}
	}
	if !failed {
		t.Errorf("the exchange of positions %v did not fail as unreachable", cut)
	}
	for _, p := range cut {
		if src := runs[0].observed[p]; src != SourcePFS {
			t.Errorf("rank 0 position %d of the cut exchange: served from %s, want the PFS", p, src)
		}
	}
}

// TestDecoratorsHideTheRunMethod pins, as identities, which endpoints carry
// runs: the raw TCP one does, and an endpoint wrapped by resilience, chaos
// or metrics does not, so its job fetches per position as before, with its
// fault draws, attempts and breakers.
func TestDecoratorsHideTheRunMethod(t *testing.T) {
	prof, err := chaos.ParseProfile("flaky-fabric")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := FabricByName(FabricTCP)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fab.Build(bg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := chaosFabric{inner: fab, sched: prof.Compile(1)}.Build(bg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw[0].(transport.RunCaller); !ok {
		t.Errorf("the raw endpoint %T does not carry runs", raw[0])
	}
	for label, ep := range map[string]Endpoint{
		"resilience": withResilience(raw[0], DefaultResilience(), 1, resilience.Hooks{},
			func(int, resilience.BreakerState, resilience.BreakerState) {}),
		"chaos":   chaotic[0],
		"metrics": instrumentFabric(NewMetricsRegistry(), []Endpoint{raw[0]})[0],
	} {
		if _, ok := ep.(transport.RunCaller); ok {
			t.Errorf("the %s decorator %T exposes the run method", label, ep)
		}
	}
	for _, ep := range append(raw, chaotic...) {
		ep.Close()
	}
}
