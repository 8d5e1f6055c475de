package invariant

import (
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// crashTagCases returns the simulator configs the crash-tag law runs on:
// two Fig. 8 panels under the node-crash preset, and random plans under
// RandomProfile draws that crash a node.
func crashTagCases(t *testing.T) []isim.Config {
	t.Helper()
	nodeCrash, err := chaos.PresetByName("node-crash")
	if err != nil {
		t.Fatal(err)
	}
	var cases []isim.Config
	for _, id := range []string{"fig8b", "fig8c"} {
		s, err := isim.ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config(0.005, 26)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = nodeCrash
		cases = append(cases, cfg)
	}
	g := prng.New(0xC2A54)
	for trial := uint64(0); len(cases) < 8; trial++ {
		cfg := randomCase(t, g, false).cfg
		cfg.Chaos = RandomProfile(g.Derive(trial), cfg.Work.Workers, cfg.Work.Epochs, len(cfg.Sys.Node.Classes), true)
		if cfg.Chaos.Compile(cfg.Seed).HasCrashes(cfg.Work.Workers) {
			cases = append(cases, cfg)
		}
	}
	return cases
}

// policy returns the named simulator policy.
func policy(t *testing.T, name string) isim.Policy {
	t.Helper()
	pol, err := isim.PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// tagCounts counts the positions a first-available rule (local, else
// remote, else PFS) sends to each source under tags.
func tagCounts(tags []byte) map[perfmodel.Location]int64 {
	n := map[perfmodel.Location]int64{}
	for _, tag := range tags {
		switch {
		case tag&0x0f != 0:
			n[perfmodel.LocLocal]++
		case tag>>4 != 0:
			n[perfmodel.LocRemote]++
		default:
			n[perfmodel.LocPFS]++
		}
	}
	return n
}

// TestCrashTagsClearOnlyCrashedHolders is the simulator half of the crash
// rule (CheckCrashTags). For each placement family a crash cell reads on
// the plan's own stream, it re-derives that cell's input from the cell's
// plan cache (the cached placement, and the cached stream redistributed by
// the schedule) and checks the crash tags against the fault-free ones. The
// first-available policies then tie the simulator to those tags: their
// fetch counts per source are exactly the tags' counts, so no simulated
// fetch is served by a crashed holder.
func TestCrashTagsClearOnlyCrashedHolders(t *testing.T) {
	cells := []struct {
		pol            isim.Policy
		family         string
		firstAvailable bool
	}{
		{policy(t, isim.NameDeepIOOrdered), plancache.FamilyFirstTouch, true},
		{isim.NewLBANN(true), plancache.FamilyPreload, true},
		{isim.NewNoPFS(), plancache.FamilyNoPFS, false},
	}
	cleared := 0
	for ci, cfg := range crashTagCases(t) {
		cfg.Plans = plancache.New(0, 0)
		n, sched := cfg.Work.Workers, cfg.Chaos.Compile(cfg.Seed)
		obs, err := sched.Survivor(n) // the rank the simulator observes
		if err != nil {
			t.Fatal(err)
		}
		art := cfg.Plans.Artifacts(*cfg.Plan())
		for _, cell := range cells {
			r := run(t, cfg, cell.pol)
			if r.Failed {
				continue
			}
			a := art.Placement(cell.family, cfg.DS, cfg.Sys.Node, obs, func() *cachepolicy.Assignment {
				t.Fatalf("case %d, %s: the crash cell cached no placement", ci, r.Policy)
				return nil
			})
			in := art.LeanInput(cell.family, cfg.DS, cfg.Sys.Node, obs, nil, func(*cachepolicy.Assignment) *plancache.LeanInput {
				t.Fatalf("case %d, %s: the crash cell cached no input", ci, r.Policy)
				return nil
			}).Streams[""]
			stream, ends := sched.RedistributeStream(obs, n, in.Stream, in.Ends,
				func(w int) ([]access.SampleID, []int) { return art.Streams[w], art.EpochEnds[w] })
			gone := func(h, f int) bool { return sched.CrashedAt(h, sort.SearchInts(ends, f+1), n) }
			holder := func(f int) int {
				_, h := a.RemoteAvail(obs, stream[f], int32(f))
				return h
			}
			plain, tags := a.Tags(obs, stream, nil), a.Tags(obs, stream, gone)
			if err := CheckCrashTags(plain, tags, holder, gone); err != nil {
				t.Errorf("case %d (chaos %q), %s: %v", ci, cfg.Chaos.Label(), r.Policy, err)
			}
			for f := range tags {
				if tags[f] != plain[f] {
					cleared++
				}
			}
			if !cell.firstAvailable {
				continue
			}
			for loc, want := range tagCounts(tags) {
				if got := r.LocCount[loc]; got != want {
					t.Errorf("case %d (chaos %q), %s: %d %s fetches, the crash tags name %d",
						ci, cfg.Chaos.Label(), r.Policy, got, loc, want)
				}
			}
		}
	}
	if cleared == 0 {
		t.Fatal("no crash cleared a remote promise: the test lost its subject")
	}
}
