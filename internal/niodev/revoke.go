package niodev

import (
	"fmt"

	"mpj/internal/mpe"
	"mpj/internal/xdev"
)

// Context revocation (xdev.Revoker). A revocation is flooded: the
// initiating rank broadcasts a control frame to every reachable peer,
// and each rank re-broadcasts on its *first* receipt. The flood makes
// propagation survive the initiator dying mid-broadcast — the ULFM
// reliability property Revoke exists for — and terminates because
// devcore.RevokeContext is idempotent, so duplicates are absorbed
// without forwarding.

// revokedErr is the shape every operation on a revoked context fails
// with.
func (d *Device) revokedErr(ctx int32) error {
	return &xdev.Error{
		Dev: DeviceName,
		Op:  fmt.Sprintf("context %d", ctx),
		Err: xdev.ErrRevoked,
	}
}

// Revoke poisons the matching context job-wide: a revoke frame goes to
// every reachable peer, then the local core drains the context.
// Idempotent; implements xdev.Revoker.
func (d *Device) Revoke(context int) error {
	d.propagateRevoke(int32(context), -1)
	return nil
}

// handleRevoke reacts to a peer's revocation broadcast on an
// input-handler goroutine.
func (d *Device) handleRevoke(h header) {
	d.propagateRevoke(h.ctx, int(h.src))
}

// propagateRevoke applies the revocation locally and, when this was
// the first receipt, forwards it to every reachable peer except `from`
// (the rank it arrived from; -1 when initiated locally).
func (d *Device) propagateRevoke(ctx int32, from int) {
	if d.closed.Load() {
		return
	}
	if !d.core.RevokeContext(ctx, d.revokedErr(ctx)) {
		return // already revoked: the flood has been here
	}
	if d.rec.Enabled() {
		d.rec.Event(mpe.Revoked, int32(from), -1, ctx, 0)
	}
	// Queued, never written here: this runs on an input handler when
	// forwarding, and a handler must not wait behind a wedged writer.
	// Best effort: everyone reachable re-floods on first receipt anyway.
	d.broadcast(header{typ: msgRevoke, src: uint32(d.cfg.Rank), ctx: ctx}, from, 0)
}

var _ xdev.Revoker = (*Device)(nil)
