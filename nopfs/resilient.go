package nopfs

import (
	"context"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/transport"
)

// resilientEndpoint is the fetch path's resilience policy as an Endpoint
// decorator: every sample fetch runs under its peer's resilience.Caller,
// prepared once per peer — a per-attempt deadline (no sooner than the
// policy's timeout, at most timeout/8 later, from a deadline window the
// peer's attempts share), bounded retries with deterministic backoff (keyed
// on seed, rank, peer and a local sequence number, see resilience.Key) and
// the peer's circuit breaker, which fails the call fast with
// resilience.ErrCircuitOpen while the peer is marked down. The repo's one
// sanctioned retry loop around fabric calls lives inside the Caller
// (`retrybound` analyzer). A response with OK=false is a heuristic miss, not
// a fault, and is never retried.
//
// Only sample fetches pay the policy. The setup allgather is control plane
// and passes through, the rule chaosEndpoint applies to injected drops; so
// does a fetch to a rank outside the fabric, which gets the fabric's error.
type resilientEndpoint struct {
	transport.Network
	seed  uint64
	peers []*resilience.Caller[transport.Response] // by rank; self has no breaker
	seq   atomic.Uint64                            // feeds each call's backoff key
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
	e := &resilientEndpoint{Network: ep, seed: seed,
		peers: make([]*resilience.Caller[transport.Response], ep.Size())}
	for peer := range e.peers {
		var br *resilience.Breaker
		if peer != ep.Rank() {
			// NewBreaker returns nil without a threshold.
			br = resilience.NewBreaker(p, func(from, to resilience.BreakerState) {
				onTransition(peer, from, to)
			})
		}
		e.peers[peer] = resilience.NewCaller[transport.Response](p, br, hooks)
	}
	return e
}

func (e *resilientEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	if req.Kind != transport.KindFetch || to < 0 || to >= len(e.peers) {
		return e.Network.Call(ctx, to, req)
	}
	key := resilience.Key(e.seed, uint64(e.Rank()), uint64(to), e.seq.Add(1))
	return e.peers[to].Do(ctx, key, func(ctx context.Context) (transport.Response, error) {
		return e.Network.Call(ctx, to, req)
	})
}
