package sim

import "repro/internal/plancache"

// NoPFSVariant configures ablations of the NoPFS policy, isolating the
// contribution of each design choice (the paper's Sec. 5).
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

// NewNoPFSVariant builds an ablated NoPFS policy: the NoPFS row with the
// variant's parts switched off.
func NewNoPFSVariant(v NoPFSVariant) Policy {
	p := NewNoPFS()
	p.name = v.Name()
	if v.RandomPlacement {
		p.rule.family = plancache.FamilyRandom
	}
	p.rule.noRemote = v.NoRemote
	if v.TinyStaging {
		p.window = oneBatch
	}
	return p
}
