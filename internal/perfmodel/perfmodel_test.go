package perfmodel

import (
	"math"
	"testing"

	"repro/internal/hwspec"
)

// compile returns the rates of sys and work for up to 8 PFS readers.
func compile(t testing.TB, sys hwspec.System, work hwspec.Workload) *Rates {
	t.Helper()
	m, err := New(sys, work)
	if err != nil {
		t.Fatal(err)
	}
	return m.Compile(8)
}

// rates returns the small cluster's rates under the Sec. 6.1 workload.
func rates(t testing.TB) *Rates {
	return compile(t, hwspec.SmallCluster(), hwspec.Sec61Workload(5))
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestNewValidates(t *testing.T) {
	bad := hwspec.SmallCluster()
	bad.Node.InterconnectMBps = 0
	if _, err := New(bad, hwspec.Sec61Workload(5)); err == nil {
		t.Error("invalid system accepted")
	}
	w := hwspec.Sec61Workload(5)
	w.ComputeMBps = 0
	if _, err := New(hwspec.SmallCluster(), w); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestWriteTimePipelined(t *testing.T) {
	r := rates(t)
	// β = 200 MB/s; staging write per-thread = 111000/8 = 13875 MB/s.
	// Preprocessing dominates: write(1 MB) = 1/200 s.
	if got := r.WriteTime(1); !almost(got, 1.0/200) {
		t.Errorf("WriteTime(1) = %v, want %v", got, 1.0/200)
	}
	// With a very fast β the staging store would dominate.
	w := hwspec.Sec61Workload(5)
	w.PreprocMBps = 1e9
	if got := compile(t, hwspec.SmallCluster(), w).WriteTime(1); !almost(got, 1.0/13875) {
		t.Errorf("store-bound WriteTime(1) = %v, want %v", got, 1.0/13875)
	}
}

func TestFetchPFSContention(t *testing.T) {
	r := rates(t)
	// t(4) = 1540 => per-client 385 MB/s streaming; the small cluster's
	// random-read fraction is 0.18, so the effective rate is 69.3 MB/s.
	if got := r.FetchPFS(0.18*385, 4); !almost(got, 1) {
		t.Errorf("FetchPFS(69.3 MB, 4 clients) = %v, want 1 s", got)
	}
	// One client: t(1) = 330 streaming, 59.4 effective.
	if got := r.FetchPFS(0.18*330, 1); !almost(got, 1) {
		t.Errorf("FetchPFS(59.4 MB, 1 client) = %v, want 1 s", got)
	}
	// More clients must never make a single read faster per-client here.
	if r.FetchPFS(100, 8) < r.FetchPFS(100, 4) {
		t.Error("per-client PFS fetch sped up with more contention")
	}
	// Past the compiled table the rate comes from the curve itself.
	if got, want := r.FetchPFS(100, 16), 100/hwspec.SmallCluster().PFS.EffectivePerClient(16); got != want {
		t.Errorf("FetchPFS(100 MB, 16 clients) = %v beyond the table, want %v", got, want)
	}
}

func TestFetchRemoteBoundedByInterconnect(t *testing.T) {
	r := rates(t)
	// RAM per-thread = 21250 MB/s < b_c = 24000, so the class rate binds
	// for class 0.
	if got := r.FetchRemote(21250, 0); !almost(got, 1) {
		t.Errorf("FetchRemote(ram) = %v, want 1 s", got)
	}
	// SSD per-thread = 2000 MB/s binds even more.
	if got := r.FetchRemote(2000, 1); !almost(got, 1) {
		t.Errorf("FetchRemote(ssd) = %v, want 1 s", got)
	}
	// If the interconnect were slower than the class, it must bind.
	slow := hwspec.SmallCluster()
	slow.Node.InterconnectMBps = 1000
	if got := compile(t, slow, hwspec.Sec61Workload(5)).FetchRemote(1000, 0); !almost(got, 1) {
		t.Errorf("interconnect-bound FetchRemote = %v, want 1 s", got)
	}
}

func TestFetchLocal(t *testing.T) {
	r := rates(t)
	if got := r.FetchLocal(21250, 0); !almost(got, 1) {
		t.Errorf("FetchLocal(ram) = %v, want 1 s", got)
	}
	if got := r.FetchLocal(2000, 1); !almost(got, 1) {
		t.Errorf("FetchLocal(ssd) = %v, want 1 s", got)
	}
}

func TestSpeedOrdering(t *testing.T) {
	// For the small cluster the paper's rank ordering must hold: remote RAM
	// (21250, under b_c = 24000) beats local SSD (2000) — "reading from
	// remote memory can be faster than reading from a local SSD".
	r := rates(t)
	sz := 100.0
	localRAM := r.FetchLocal(sz, 0)
	remoteRAM := r.FetchRemote(sz, 0)
	localSSD := r.FetchLocal(sz, 1)
	pfs := r.FetchPFS(sz, 4)
	if !(localRAM <= remoteRAM && remoteRAM < localSSD && localSSD < pfs) {
		t.Errorf("ordering violated: localRAM=%v remoteRAM=%v localSSD=%v pfs=%v",
			localRAM, remoteRAM, localSSD, pfs)
	}
}

func TestBestSelectsFastest(t *testing.T) {
	r := rates(t)
	sz := 10.0

	// Nothing cached: PFS is the only option.
	c := r.Best(sz, -1, -1, 4)
	if c.Loc != LocPFS || c.Class != -1 {
		t.Errorf("uncached Best = %+v, want PFS", c)
	}

	// Cached in local RAM: local wins.
	c = r.Best(sz, 0, -1, 4)
	if c.Loc != LocLocal || c.Class != 0 {
		t.Errorf("local-RAM Best = %+v", c)
	}

	// Cached only on a remote worker's RAM: remote beats PFS.
	c = r.Best(sz, -1, 0, 4)
	if c.Loc != LocRemote {
		t.Errorf("remote-RAM Best = %+v", c)
	}

	// Local SSD vs remote RAM: remote RAM is faster on this cluster.
	c = r.Best(sz, 1, 0, 4)
	if c.Loc != LocRemote || c.Class != 0 {
		t.Errorf("ssd-vs-remote Best = %+v, want remote RAM", c)
	}

	// Local SSD vs PFS under light contention: SSD wins.
	c = r.Best(sz, 1, -1, 4)
	if c.Loc != LocLocal || c.Class != 1 {
		t.Errorf("ssd-vs-pfs Best = %+v, want local SSD", c)
	}
}

func TestBestSecondsConsistent(t *testing.T) {
	r := rates(t)
	c := r.Best(7, 1, 0, 8)
	if want := r.FetchRemote(7, 0); c.Seconds != want {
		t.Errorf("Best.Seconds = %v, want FetchRemote's %v", c.Seconds, want)
	}
	if c := r.Best(7, -1, -1, 8); c.Seconds != r.FetchPFS(7, 8) {
		t.Errorf("uncached Best.Seconds = %v, want FetchPFS's %v", c.Seconds, r.FetchPFS(7, 8))
	}
}

func TestLocationString(t *testing.T) {
	if LocPFS.String() != "pfs" || LocRemote.String() != "remote" || LocLocal.String() != "local" {
		t.Error("location labels wrong")
	}
	if Location(99).String() == "" {
		t.Error("unknown location should still render")
	}
}

func BenchmarkBest(b *testing.B) {
	r := rates(b)
	for i := 0; i < b.N; i++ {
		r.Best(0.1, i%3-1, (i+1)%3-1, 4)
	}
}
