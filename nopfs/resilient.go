package nopfs

import (
	"context"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/transport"
)

// resilientEndpoint is the fetch path's resilience policy as an Endpoint
// decorator: every sample fetch runs under resilience.Do — per-attempt
// deadline, bounded retries with deterministic backoff (keyed on seed, rank,
// peer and a local sequence number, see resilience.Key) and the peer's
// circuit breaker, which fails the call fast with resilience.ErrCircuitOpen
// while the peer is marked down. The repo's one sanctioned retry loop around
// fabric calls lives inside Do (`retrybound` analyzer). A response with
// OK=false is a heuristic miss, not a fault, and is never retried.
//
// Only sample fetches pay the policy. The setup allgather is control plane
// and passes through, the rule chaosEndpoint applies to injected drops.
type resilientEndpoint struct {
	transport.Network
	policy   resilience.Policy
	seed     uint64
	breakers []*resilience.Breaker // by peer; nil for self and without a threshold
	seq      atomic.Uint64         // feeds each call's backoff key
	hooks    resilience.Hooks
}

// withResilience wraps ep in the policy; the zero policy returns ep itself,
// so a run without resilience has no decorator on its fetch path. It is the
// outermost endpoint wrapper — resilience(instrument(chaos(raw))) — so the
// call metrics count attempts and an injected drop is retried. hooks
// observes the retries, onTransition every per-peer breaker state change.
func withResilience(ep Endpoint, p resilience.Policy, seed uint64, hooks resilience.Hooks,
	onTransition func(peer int, from, to resilience.BreakerState)) Endpoint {
	if p.Empty() {
		return ep
	}
	e := &resilientEndpoint{Network: ep, policy: p, seed: seed, hooks: hooks,
		breakers: make([]*resilience.Breaker, ep.Size())}
	for peer := range e.breakers {
		if peer == ep.Rank() {
			continue
		}
		// NewBreaker returns nil without a threshold.
		e.breakers[peer] = resilience.NewBreaker(p, func(from, to resilience.BreakerState) {
			onTransition(peer, from, to)
		})
	}
	return e
}

func (e *resilientEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	if req.Kind != transport.KindFetch {
		return e.Network.Call(ctx, to, req)
	}
	key := resilience.Key(e.seed, uint64(e.Rank()), uint64(to), e.seq.Add(1))
	return resilience.Do(ctx, e.policy, e.breakers[to], key, e.hooks,
		func(ctx context.Context) (transport.Response, error) {
			return e.Network.Call(ctx, to, req)
		})
}
