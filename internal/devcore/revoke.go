package devcore

import (
	"mpj/internal/match"
	"mpj/internal/xdev"
)

// Context revocation (ULFM-style). Revoking a matching context poisons
// it on this core: every parked operation using the context — posted
// receives, unmatched arrivals (including synchronous senders waiting
// in them and rendezvous exchanges mid-protocol), pending-set entries
// stamped with the context — fails with the device-shaped revocation
// error, blocked probes wake to observe it, and future operations on
// the context fail fast. Other contexts are untouched: unlike Shutdown
// or SetAborted, the core keeps running, which is what lets survivors
// of a rank loss agree and rebuild on a fresh context.
//
// Revocation is local to one core; devices propagate it to their peers
// (a control frame on niodev, board iteration on smpdev, fabric
// iteration on mxsim) and the propagation converges because
// RevokeContext is idempotent.

// NoCtx is the OpCtx value of a request not stamped with a matching
// context. It is outside the space devices use (contexts, including
// the negative recovery contexts, are small), so a revocation can
// never drain an unstamped request.
const NoCtx = int32(-1 << 31)

// RevokeContext poisons ctx with err (pre-shaped by the device, e.g.
// wrapping xdev.ErrRevoked). It reports whether this call was the one
// that recorded the revocation — false means the context was already
// revoked (or the core closed), letting devices re-broadcast received
// revocations exactly once.
func (c *Core) RevokeContext(ctx int32, err error) bool {
	c.mu.Lock()
	if c.closed || c.revoked[ctx] != nil {
		c.mu.Unlock()
		return false
	}
	if c.revoked == nil {
		c.revoked = make(map[int32]error)
	}
	c.revoked[ctx] = err

	// Posted receives on the context.
	victims := c.posted.TakeFunc(func(p match.Pattern, _ *Request) bool {
		return p.Ctx == ctx
	})
	// Pending protocol exchanges (rendezvous sends/receives, sync
	// sends) stamped with the context.
	for _, s := range c.pending {
		victims = append(victims, s.drainLocked(func(_ PendingKey, r *Request) bool {
			return r != nil && r.OpCtx == ctx
		})...)
	}
	// Unmatched arrivals on the context: drop them all — their data can
	// never be received now — and fail local synchronous senders still
	// parked behind them.
	for _, a := range c.arrived.TakeFunc(func(a *Arrival) bool { return a.Ctx == ctx }) {
		if a.SyncReq != nil {
			victims = append(victims, a.SyncReq)
		}
	}
	notify := c.notify
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		notify()
	}

	for _, r := range victims {
		if r.TryClaim() {
			r.Complete(xdev.Status{}, err)
		}
	}
	return true
}

// CtxErr returns the revocation error recorded for ctx, or nil while
// the context is live.
func (c *Core) CtxErr(ctx int32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.revoked[ctx]
}
