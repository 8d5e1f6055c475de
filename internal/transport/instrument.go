package transport

import (
	"context"

	"repro/internal/clock"
)

// CallObserver receives one completed outbound Call: the request sent,
// whether it succeeded (err == nil), and its wall-clock duration in seconds.
type CallObserver func(req Request, ok bool, seconds float64)

// instrumented decorates a Network, timing outbound Calls. Serving-side
// traffic is untouched: the handler still sees the fabric's context.
type instrumented struct {
	Network
	obs   CallObserver
	clock clock.Clock
}

// Instrument wraps n so every outbound Call is reported to obs. A nil
// observer returns n unchanged, so the uninstrumented path stays
// decorator-free.
func Instrument(n Network, obs CallObserver) Network {
	if obs == nil {
		return n
	}
	return &instrumented{Network: n, obs: obs, clock: clock.Real}
}

func (i *instrumented) Call(ctx context.Context, to int, req Request) (Response, error) {
	start := i.clock.Now()
	resp, err := i.Network.Call(ctx, to, req)
	i.obs(req, err == nil, i.clock.Now().Sub(start).Seconds())
	return resp, err
}
