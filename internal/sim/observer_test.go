package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
)

// observerSpread runs every Fig. 8 policy on cfg once per observed rank
// (through Env.obs) and returns, per policy, how far the other ranks' exec,
// stall and PFS seconds lie from rank 0's: the largest distance, exec and
// stall as a fraction of rank 0's exec seconds, PFS seconds as a fraction of
// rank 0's own. A policy that cannot run the config is left out.
func observerSpread(t *testing.T, cfg Config) map[string][3]float64 {
	t.Helper()
	cfg.Plans = plancache.New(0, 0)
	out := map[string][3]float64{}
	for _, pol := range AllPolicies() {
		var base *Result
		for w := 0; w < cfg.Work.Workers; w++ {
			env, err := newEnv(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			env.obs = w
			r := env.run(pol)
			if r.Failed {
				break
			}
			if w == 0 {
				base = r
				continue
			}
			d := out[pol.Name()]
			for i, v := range [][2]float64{
				{r.ExecSeconds, base.ExecSeconds},
				{r.StallSeconds, base.StallSeconds},
				{r.LocSeconds[perfmodel.LocPFS], base.LocSeconds[perfmodel.LocPFS]},
			} {
				den := base.ExecSeconds
				if i == 2 {
					den = max(v[1], 1e-9)
				}
				d[i] = max(d[i], math.Abs(v[0]-v[1])/den)
			}
			out[pol.Name()] = d
		}
	}
	return out
}

// TestObserverSpread: on the uniform pattern with no faults the ranks are
// symmetric up to their own samples, so the simulator's result does not
// depend much on which rank it observes. Every Fig. 8 policy runs small
// fig8a and fig8b cells with each rank as the observer. No rank's exec
// seconds lie more than 10 % from rank 0's, its stall more than 2 % of rank
// 0's exec seconds, and its PFS seconds more than 25 % from rank 0's. The
// measured maxima (seeds 1–3, scale 0.005) are 7.6 % (DeepIO (Opp.),
// fig8b: ranks cache different first-touch sets and cycle them), 1.0 %
// (Naive) and 16.9 % (NoPFS, fig8a, where only epoch 0 reads the PFS);
// exec differs by about 2 % for every policy because the ranks' streams
// hold different samples. With -v it logs the same spread under the zipf,
// hot-set and mix patterns, which make ranks unequal and are not bounded.
func TestObserverSpread(t *testing.T) {
	eps := [3]float64{0.10, 0.02, 0.25}
	specs := []string{""}
	if testing.Verbose() {
		specs = append(specs, "zipf", "hot-set", "mix")
	}
	for _, spec := range specs {
		var worst [3]float64
		for _, panel := range []string{"fig8a", "fig8b"} {
			for seed := uint64(1); seed <= 3; seed++ {
				for name, d := range observerSpread(t, patternConfigOn(t, panel, spec, seed)) {
					for i := range d {
						worst[i] = max(worst[i], d[i])
						if spec == "" && d[i] > eps[i] {
							t.Errorf("%s seed %d, %s: %s spread across ranks %.4f > ε %.2f",
								panel, seed, name, [3]string{"exec", "stall", "PFS"}[i], d[i], eps[i])
						}
					}
				}
			}
		}
		if spec == "" && worst[0] == 0 {
			t.Fatal("every rank ran rank 0's cell: the observer is not honoured")
		}
		t.Logf("access %q: spread across ranks: exec %.4f, stall %.4f (of rank 0's exec), PFS %.4f (of rank 0's)",
			spec, worst[0], worst[1], worst[2])
	}
}

// TestObserverIsLowestSurvivor: the simulator observes the lowest rank its
// crash schedule never crashes, so a crash aimed at rank 0 crashes rank 0
// and the observed rank still runs every epoch, its plan stream reshaped by
// the crash.
func TestObserverIsLowestSurvivor(t *testing.T) {
	for _, tc := range []struct {
		profile string
		obs     int
	}{{"", 0}, {"node-crash", 0}, {"crash:0@1", 1}, {"crash:0@1,crash:1@2", 2}, {"crash:4@2,crash:1@1,crash:2@1", 3}} {
		cfg := patternConfigOn(t, "fig8b", "", 5)
		cfg.Plans = plancache.New(0, 0)
		profile, err := chaos.ParseProfile(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = profile
		env, err := newEnv(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if env.obs != tc.obs {
			t.Errorf("%q: observes rank %d, want %d", tc.profile, env.obs, tc.obs)
		}
		art := env.Art
		stream, _ := env.Chaos.RedistributeStream(tc.obs, env.Plan.N, art.Streams[tc.obs], art.EpochEnds[tc.obs],
			func(w int) ([]access.SampleID, []int) { return art.Streams[w], art.EpochEnds[w] })
		for _, pol := range []Policy{NewNoPFS(), NewStagingBuffer()} {
			r, err := Run(cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			var fetches int64
			for _, n := range r.LocCount {
				fetches += n
			}
			if len(r.EpochSeconds) != cfg.Work.Epochs || fetches != int64(len(stream)) {
				t.Errorf("%q, %s: %d epochs and %d fetches, want %d and rank %d's reshaped stream of %d",
					tc.profile, r.Policy, len(r.EpochSeconds), fetches, cfg.Work.Epochs, tc.obs, len(stream))
			}
		}
	}
}

// TestNoSurvivorRejected: a schedule that crashes every rank leaves no rank
// to observe and nobody to absorb the crashed plan rounds. Validate rejects
// it with chaos.ErrNoSurvivor, and so does Run, for every policy, in bounded
// time: redistributing over zero survivors never ends.
func TestNoSurvivorRejected(t *testing.T) {
	cfg := patternConfigOn(t, "fig8a", "", 5)
	profile, err := chaos.ParseProfile("crash:0@1,crash:1@1,crash:2@2,crash:3@4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = profile
	if err := cfg.Validate(); !errors.Is(err, chaos.ErrNoSurvivor) {
		t.Fatalf("Validate: %v, want chaos.ErrNoSurvivor", err)
	}
	done := make(chan error, 1)
	go func() {
		for _, pol := range AllPolicies() {
			if _, err := Run(cfg, pol); !errors.Is(err, chaos.ErrNoSurvivor) {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v, want chaos.ErrNoSurvivor", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5 s")
	}
}
