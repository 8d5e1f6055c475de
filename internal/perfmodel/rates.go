package perfmodel

// Rates evaluates the Sec. 4 equations for one Model. Every fetch time is
// sizeMB divided by a constant per-source rate compiled once, so the
// simulator's hot loop performs one table load and one division per fetch
// instead of re-interpolating throughput curves for every sample.
type Rates struct {
	m *Model
	// pfs[γ] is RandomFraction·t(γ)/γ for γ in [1, len-1]; index 0 unused.
	pfs []float64
	// local[j] is r_j(p_j)/p_j; remote[j] is min(b_c, r_j(p_j)/p_j).
	local, remote []float64
	// write is min(β, w₀(p₀)/p₀): the single binding divisor of WriteTime.
	write float64
}

// Compile precomputes the model's constant rates for PFS reader counts up to
// maxClients (the worker count: γ never exceeds N and the simulator's other
// PFS callers pass N itself).
func (m *Model) Compile(maxClients int) *Rates {
	if maxClients < 1 {
		maxClients = 1
	}
	r := &Rates{m: m, pfs: make([]float64, maxClients+1)}
	for g := 1; g <= maxClients; g++ {
		r.pfs[g] = m.Sys.PFS.EffectivePerClient(g)
	}
	r.local = make([]float64, len(m.Sys.Node.Classes))
	r.remote = make([]float64, len(m.Sys.Node.Classes))
	for j, cls := range m.Sys.Node.Classes {
		rate := cls.ReadPerThread()
		r.local[j] = rate
		if bc := m.Sys.Node.InterconnectMBps; bc < rate {
			rate = bc
		}
		r.remote[j] = rate
	}
	r.write = m.Work.PreprocMBps
	if store := m.Sys.Node.Staging.WritePerThread(); store < r.write {
		r.write = store
	}
	return r
}

// PFSRate returns the effective per-client PFS rate at `clients` readers.
func (r *Rates) PFSRate(clients int) float64 {
	if clients >= 1 && clients < len(r.pfs) {
		return r.pfs[clients]
	}
	return r.m.Sys.PFS.EffectivePerClient(clients)
}

// LocalRate returns class j's per-thread read rate r_j(p_j)/p_j.
func (r *Rates) LocalRate(j int) float64 { return r.local[j] }

// RemoteRate returns min(b_c, r_j(p_j)/p_j) for class j.
func (r *Rates) RemoteRate(j int) float64 { return r.remote[j] }

// WriteRate returns min(β, w₀(p₀)/p₀), WriteTime's binding divisor.
func (r *Rates) WriteRate() float64 { return r.write }

// FetchPFS returns fetch_{i,0,0}(k) = s/(t(γ)/γ): the time to pull sizeMB
// from the PFS while γ−1 other clients are also reading. The per-client
// share is derated by the system's random-read fraction (hwspec.PFS).
func (r *Rates) FetchPFS(sizeMB float64, clients int) float64 {
	return sizeMB / r.PFSRate(clients)
}

// FetchRemote returns fetch_{i,1,j}(k) = s/min(b_c, r_j(p_j)/p_j): a remote
// read is bounded by the slower of the interconnect and the remote class's
// per-thread read rate. class indexes Node.Classes.
func (r *Rates) FetchRemote(sizeMB float64, class int) float64 {
	return sizeMB / r.remote[class]
}

// FetchLocal returns fetch_{i,2,j}(k) = s/(r_j(p_j)/p_j).
func (r *Rates) FetchLocal(sizeMB float64, class int) float64 {
	return sizeMB / r.local[class]
}

// WriteTime returns write_i(k) = max(s/β, s/(w₀(p₀)/p₀)): preprocessing and
// the staging-buffer store are pipelined, so the slower of the two binds.
// It is one division by the smaller rate: correctly-rounded division is
// monotone in the divisor, so max(s/a, s/b) == s/min(a, b) bit for bit for
// s ≥ 0 and a, b > 0.
func (r *Rates) WriteTime(sizeMB float64) float64 {
	return sizeMB / r.write
}

// Best returns the fastest applicable fetch source for a sample of sizeMB,
// implementing the paper's argmin fetch rule (Fig. 5): localClass and
// remoteClass give the fastest storage class holding the sample locally and
// on some remote worker (−1 when not cached there); clients is the current
// PFS reader count γ. The PFS is always applicable; ties go to the earlier
// of PFS, remote, local.
func (r *Rates) Best(sizeMB float64, localClass, remoteClass, clients int) Choice {
	best := Choice{Loc: LocPFS, Class: -1, Seconds: sizeMB / r.PFSRate(clients)}
	if remoteClass >= 0 {
		if t := sizeMB / r.remote[remoteClass]; t < best.Seconds {
			best = Choice{Loc: LocRemote, Class: remoteClass, Seconds: t}
		}
	}
	if localClass >= 0 {
		if t := sizeMB / r.local[localClass]; t < best.Seconds {
			best = Choice{Loc: LocLocal, Class: localClass, Seconds: t}
		}
	}
	return best
}
