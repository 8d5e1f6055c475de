package sim

import (
	"repro/internal/cachepolicy"
	"repro/internal/plancache"
)

// NoPFSVariant configures ablations of the NoPFS policy, isolating the
// contribution of each design choice (DESIGN.md Sec. 5).
type NoPFSVariant struct {
	// RandomPlacement fills storage classes in first-access order instead
	// of by access frequency — ablates the Sec. 3.1 analysis.
	RandomPlacement bool
	// NoRemote disables peer fetches — ablates distributed caching.
	NoRemote bool
	// TinyStaging shrinks the lookahead window to one mini-batch —
	// ablates clairvoyant prefetch depth.
	TinyStaging bool
}

// Name returns a label describing the ablation.
func (v NoPFSVariant) Name() string {
	name := "NoPFS"
	if v.RandomPlacement {
		name += "-randplace"
	}
	if v.NoRemote {
		name += "-noremote"
	}
	if v.TinyStaging {
		name += "-tinybuf"
	}
	return name
}

// nopfsAblated is NoPFS with parts switched off.
type nopfsAblated struct {
	v      NoPFSVariant
	assign *cachepolicy.Assignment
}

// NewNoPFSVariant builds an ablated NoPFS policy.
func NewNoPFSVariant(v NoPFSVariant) Policy { return &nopfsAblated{v: v} }

func (n *nopfsAblated) Name() string { return n.v.Name() }

func (n *nopfsAblated) Prepare(env *Env) (float64, error) {
	n.assign = env.place(n.rule().family)
	return 0, nil
}

func (n *nopfsAblated) rule() sourceRule {
	family := plancache.FamilyNoPFS
	if n.v.RandomPlacement {
		family = plancache.FamilyRandom
	}
	return sourceRule{family: family, place: n.assign, argmin: true, noRemote: n.v.NoRemote}
}
func (n *nopfsAblated) Coverage(*Env) float64        { return 1 }
func (n *nopfsAblated) Synchronous() bool            { return false }
func (n *nopfsAblated) PrefetchThreads(env *Env) int { return nodeThreads(env) }

func (n *nopfsAblated) StagingMB(env *Env) float64 {
	if n.v.TinyStaging {
		return float64(env.Cfg.Work.BatchPerWorker) * env.MeanMB
	}
	return nodeStagingMB(env)
}
