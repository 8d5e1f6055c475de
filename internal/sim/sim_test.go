package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cachepolicy"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/perfmodel"
)

// testScale shrinks Fig. 8 scenarios enough for fast tests while preserving
// their dataset-vs-storage regime.
const testScale = 0.005

func runPanel(t *testing.T, id string) map[string]*Result {
	t.Helper()
	s, err := ScenarioByID(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Result{}
	for _, pol := range AllPolicies() {
		r, err := Run(cfg, pol)
		if err != nil {
			t.Fatalf("policy %s: %v", pol.Name(), err)
		}
		out[r.Policy] = r
	}
	return out
}

func TestScenarioByID(t *testing.T) {
	if _, err := ScenarioByID("fig8a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByID("imagenet-22k"); err != nil {
		t.Error("lookup by dataset name failed")
	}
	if _, err := ScenarioByID("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestNoPFSFetchMixShiftsOffPFS(t *testing.T) {
	// After epoch 0, NoPFS serves most fetches from local/remote caches:
	// its PFS fetch count must be well below the total.
	r := runPanel(t, "fig8b")
	nopfs := r[NameNoPFS]
	total := nopfs.LocCount[perfmodel.LocPFS] + nopfs.LocCount[perfmodel.LocRemote] + nopfs.LocCount[perfmodel.LocLocal]
	pfsFrac := float64(nopfs.LocCount[perfmodel.LocPFS]) / float64(total)
	// 5 epochs: epoch 0 is all-PFS (~20% of accesses); beyond that the
	// caches serve nearly everything in the 8b regime.
	if pfsFrac > 0.35 {
		t.Errorf("NoPFS PFS fetch fraction = %.2f, want <= 0.35", pfsFrac)
	}
	if nopfs.LocCount[perfmodel.LocLocal] == 0 {
		t.Error("NoPFS never hit its local cache")
	}
}

func TestEpochZeroSlowerThanSteadyState(t *testing.T) {
	// Paper Fig. 11: the first epoch pays for cold caches. For NoPFS,
	// epoch 0 must be the slowest epoch.
	r := runPanel(t, "fig8b")
	ep := r[NameNoPFS].EpochSeconds
	if len(ep) < 2 {
		t.Fatalf("expected multiple epochs, got %d", len(ep))
	}
	// Later epochs process different (random) sample subsets, so allow a
	// small compute-total wobble; epoch 0 must still not be beaten by more
	// than that.
	for e := 1; e < len(ep); e++ {
		if ep[e] > ep[0]*1.02 {
			t.Errorf("epoch %d (%.2fs) slower than epoch 0 (%.2fs)", e, ep[e], ep[0])
		}
	}
}

func TestBatchAndEpochAccounting(t *testing.T) {
	s, _ := ScenarioByID("fig8b")
	cfg, err := s.Config(testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EpochSeconds) != cfg.Work.Epochs {
		t.Errorf("got %d epoch times, want %d", len(r.EpochSeconds), cfg.Work.Epochs)
	}
	var epochSum, batchSum float64
	for _, e := range r.EpochSeconds {
		epochSum += e
	}
	for _, b := range r.BatchSeconds {
		batchSum += b
	}
	if math.Abs(epochSum-(r.ExecSeconds-r.SetupSeconds)) > 1e-6*r.ExecSeconds+1e-9 {
		t.Errorf("epoch times sum to %.4f, exec-setup = %.4f", epochSum, r.ExecSeconds-r.SetupSeconds)
	}
	if math.Abs(batchSum-(r.ExecSeconds-r.SetupSeconds)) > 1e-6*r.ExecSeconds+1e-9 {
		t.Errorf("batch times sum to %.4f, exec-setup = %.4f", batchSum, r.ExecSeconds-r.SetupSeconds)
	}
}

func TestDeterminism(t *testing.T) {
	s, _ := ScenarioByID("fig8b")
	cfg, _ := s.Config(testScale, 99)
	a, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecSeconds != b.ExecSeconds || a.StallSeconds != b.StallSeconds {
		t.Error("same seed gave different results")
	}
}

func TestPFSJitterAddsTail(t *testing.T) {
	// With jitter, PFS-bound loaders develop a heavy batch-time tail
	// (paper: "tail events an order of magnitude larger"); NoPFS, which
	// rarely touches the PFS after epoch 0, stays tight.
	s, _ := ScenarioByID("fig8b")
	cfg, _ := s.Config(testScale, 3)
	cfg.PFSJitter = 1.0

	staging, err := Run(cfg, NewStagingBuffer())
	if err != nil {
		t.Fatal(err)
	}
	nopfs, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	tail := func(r *Result) float64 {
		// max/median of per-batch times, skipping epoch 0.
		skip := len(r.BatchSeconds) / cfg.Work.Epochs
		var xs []float64
		xs = append(xs, r.BatchSeconds[skip:]...)
		maxV, sum := 0.0, 0.0
		for _, v := range xs {
			if v > maxV {
				maxV = v
			}
			sum += v
		}
		return maxV / (sum / float64(len(xs)))
	}
	if tail(staging) < tail(nopfs) {
		t.Errorf("StagingBuffer tail (%.1fx) should exceed NoPFS tail (%.1fx)",
			tail(staging), tail(nopfs))
	}
}

func TestGammaAdapts(t *testing.T) {
	env, err := newEnv(&Config{
		Sys: hwspec.SmallCluster(), Work: hwspec.Sec61Workload(2),
		DS:   dataset.MustNew(dataset.Spec{Name: "g", F: 1000, MeanSize: 1 << 20, Classes: 2, Seed: 1}),
		Seed: 1, DropLast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.Gamma() != 4 {
		t.Errorf("initial gamma = %d, want N=4 (all-PFS start)", env.Gamma())
	}
	for i := 0; i < 500; i++ {
		env.ewma = gammaMiss(env.ewma)
	}
	if env.Gamma() != 1 {
		t.Errorf("gamma after all-cache phase = %d, want 1", env.Gamma())
	}
	for i := 0; i < 500; i++ {
		env.ewma = gammaHit(env.ewma)
	}
	if env.Gamma() != 4 {
		t.Errorf("gamma after all-PFS phase = %d, want 4", env.Gamma())
	}
}

func TestPolicyByNameRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := PolicyByName(p.Name())
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", p.Name(), err)
			continue
		}
		if got.Name() != p.Name() {
			t.Errorf("round trip %q -> %q", p.Name(), got.Name())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	cfg := Config{
		Sys: hwspec.SmallCluster(), Work: hwspec.Sec61Workload(2),
		DS:   dataset.MustNew(dataset.Spec{Name: "v", F: 10, MeanSize: 1024, Classes: 1, Seed: 1}),
		Seed: 1,
	}
	// Global batch 128 > F=10.
	if err := cfg.Validate(); err == nil {
		t.Error("config with batch > dataset accepted")
	}
	// A source tag has one nibble per side: hierarchies deeper than
	// cachepolicy.MaxTagClasses are rejected, not mis-tagged.
	cfg.DS = dataset.MustNew(dataset.Spec{Name: "v", F: 1000, MeanSize: 1024, Classes: 1, Seed: 1})
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	deep := cfg.Sys.Node.Classes[0]
	cfg.Sys.Node.Classes = nil
	for len(cfg.Sys.Node.Classes) <= cachepolicy.MaxTagClasses {
		cfg.Sys.Node.Classes = append(cfg.Sys.Node.Classes, deep)
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "storage classes") {
		t.Errorf("config with %d storage classes: got %v, want a storage-class error", len(cfg.Sys.Node.Classes), err)
	}
}

func TestFig9ConfigShapes(t *testing.T) {
	// The Fig. 9 config factory must honour the storage knobs: RAM-only,
	// RAM+SSD, and the unscaled staging buffer.
	cfg, err := Fig9Config(0.002, 11, 5, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cfg.Sys.Node.Classes); got != 1 {
		t.Errorf("RAM-only config has %d classes, want 1", got)
	}
	if cfg.Sys.Node.Staging.CapacityMB != 5000 {
		t.Errorf("staging = %.0f MB, want 5000 (not scaled with dataset)", cfg.Sys.Node.Staging.CapacityMB)
	}
	cfg, err = Fig9Config(0.002, 11, 2, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cfg.Sys.Node.Classes); got != 2 {
		t.Errorf("RAM+SSD config has %d classes, want 2", got)
	}
	if cfg.Sys.Node.Staging.CapacityMB != 2000 {
		t.Errorf("staging = %.0f MB, want 2000", cfg.Sys.Node.Staging.CapacityMB)
	}
}

func TestScaleSystemDoesNotAliasPreset(t *testing.T) {
	base := hwspec.SmallCluster()
	scaled := ScaleSystem(base, 0.5)
	if scaled.Node.Classes[0].CapacityMB != base.Node.Classes[0].CapacityMB/2 {
		t.Error("scaling wrong")
	}
	if hwspec.SmallCluster().Node.Classes[0].CapacityMB != 120000 {
		t.Error("ScaleSystem mutated the preset's class slice")
	}
}

func BenchmarkSimNoPFSImageNet1k(b *testing.B) {
	s, _ := ScenarioByID("fig8b")
	cfg, err := s.Config(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, NewNoPFS()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimAllPoliciesMNIST(b *testing.B) {
	s, _ := ScenarioByID("fig8a")
	cfg, err := s.Config(0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range AllPolicies() {
			if _, err := Run(cfg, pol); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulateHotLoop isolates the consumption-recurrence inner loop:
// plan artifacts and the NoPFS assignment are prewarmed in the shared plan
// cache, so each iteration measures only Prepare-lookup + the simulate()
// pass over the stream. Allocations here are the per-run Result series, not
// per-sample accounting.
func BenchmarkSimulateHotLoop(b *testing.B) {
	s, _ := ScenarioByID("fig8b")
	cfg, err := s.Config(0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(cfg, NewNoPFS()); err != nil { // warm the plan cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, NewNoPFS()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColdCostAndDeclaredFamily is the dispatch estimate's table: on a Fig. 8
// row ColdCost puts NoPFS first and the policies without a placement last,
// each pass a rule declares (a placement, a stream of its own) costs more
// than its absence, and what a rule declares before Prepare is what Prepare
// does — the placement the policy fetches by is the declared family's entry
// in the plan cache, and a policy declaring none places nothing.
func TestColdCostAndDeclaredFamily(t *testing.T) {
	s, err := ScenarioByID("fig8b") // every policy runs on fig8b
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 23)
	if err != nil {
		t.Fatal(err)
	}
	positions := int64(cfg.Plan().StreamLen(0))
	n := int64(cfg.Work.Workers)
	pols := append(AllPolicies(),
		NewNoPFSVariant(NoPFSVariant{RandomPlacement: true}), NewNoPFSVariant(NoPFSVariant{NoRemote: true}))
	wantPasses := map[string]int64{
		NameNaive: 1, NameStagingBuffer: 1, NameLowerBound: 1,
		NameDeepIOOrdered: 3, NameLBANNDynamic: 3, NameLBANNPreload: 3,
		NameDeepIOOpp: 4, NameParallelStaging: 4, NameLocalityAware: 4,
		NameNoPFS: 2 + 2*n, "NoPFS-randplace": 2 + 2*n, "NoPFS-noremote": 2 + 2*n,
	}
	wantFamily := map[string]string{
		NameDeepIOOrdered: "firsttouch", NameDeepIOOpp: "firsttouch", NameLBANNDynamic: "firsttouch",
		NameLBANNPreload: "preload", NameParallelStaging: "shard", NameLocalityAware: "shard",
		NameNoPFS: "nopfs", "NoPFS-randplace": "random", "NoPFS-noremote": "nopfs",
	}
	for _, pol := range pols {
		name := pol.Name()
		if got, want := ColdCost(&cfg, pol), positions*wantPasses[name]; got != want || want == 0 {
			t.Errorf("%s: ColdCost = %d, want %d positions x %d passes", name, got, positions, wantPasses[name])
		}
		declared := pol.rule()
		if declared.family != wantFamily[name] || declared.place != nil {
			t.Errorf("%s: declares family %q (placement %v) before Prepare, want %q and none",
				name, declared.family, declared.place, wantFamily[name])
		}
		env, err := newEnv(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pol.Prepare(env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prepared := pol.rule()
		if prepared.family != declared.family || prepared.stream != declared.stream {
			t.Errorf("%s: rule changed over Prepare: %+v -> %+v", name, declared, prepared)
		}
		switch {
		case declared.family == "":
			if prepared.place != nil {
				t.Errorf("%s: declares no placement but Prepare placed one", name)
			}
		case prepared.place != env.place(declared.family):
			t.Errorf("%s: Prepare's placement is not the %q entry of the plan cache", name, declared.family)
		}
	}
	bad := cfg
	bad.Work.Workers = 0
	if got := ColdCost(&bad, NewNoPFS()); got != 0 {
		t.Errorf("ColdCost of an invalid config = %d, want 0", got)
	}
}
