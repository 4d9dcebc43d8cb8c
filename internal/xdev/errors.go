package xdev

import (
	"errors"
	"fmt"
)

// Failure taxonomy shared by every device. Devices wrap these sentinels
// (directly or via errors.Join) so upper layers and applications can
// classify failures with errors.Is regardless of which device produced
// them:
//
//   - ErrPeerLost: a specific peer process died or its connection broke.
//     Every pending request addressed to that peer fails with it, and
//     new operations naming the peer fail immediately.
//   - ErrDeviceClosed: the local device was finished while the
//     operation was pending (or before it was issued).
//   - ErrCorruptFrame: frame integrity checking (niodev's per-frame
//     CRC-32C) detected wire corruption. The connection is treated as
//     compromised, so the error usually appears joined with ErrPeerLost.
//   - ErrAborted: the job was torn down by Comm.Abort, locally or by a
//     remote rank's abort control frame.
//   - ErrRevoked: the communication context the operation used was
//     revoked (ULFM-style) by some rank of its communicator. Unlike
//     ErrAborted the device survives: other contexts keep working, so
//     survivors can agree, shrink and continue on a new communicator.
var (
	ErrPeerLost     = errors.New("xdev: peer lost")
	ErrDeviceClosed = errors.New("xdev: device closed")
	ErrCorruptFrame = errors.New("xdev: corrupt frame")
	ErrAborted      = errors.New("xdev: job aborted")
	ErrRevoked      = errors.New("xdev: communicator revoked")
)

// AbortError carries the application-supplied code of an Abort and the
// slot of the process that initiated it. errors.Is(err, ErrAborted)
// matches it.
type AbortError struct {
	// Code is the code passed to Abort.
	Code int
	// From is the job slot that initiated the abort (-1 if unknown).
	From int
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("xdev: job aborted with code %d by slot %d", e.Code, e.From)
}

// Is makes AbortError match the ErrAborted sentinel.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// Aborter is implemented by devices that can broadcast an abort to the
// rest of the job (a control frame, a group notification) before
// tearing down locally. Devices without native support are simply
// finished by the layer above.
type Aborter interface {
	// Abort notifies every reachable peer that the job is aborting with
	// the given code, then fails all pending local requests with an
	// AbortError. The device remains finishable afterwards.
	Abort(code int) error
}

// Revoker is implemented by devices that can revoke a matching context
// job-wide: every pending operation on that context — posted receives,
// parked synchronous sends, unmatched arrivals, rendezvous in flight —
// fails with an error wrapping ErrRevoked, locally and on every
// reachable peer, and future operations on the context fail fast. Other
// contexts are untouched; the device stays usable, which is what
// separates revocation from Abort.
type Revoker interface {
	// Revoke poisons the given matching context everywhere. It is
	// idempotent: revoking an already-revoked context is a no-op, which
	// lets peers re-broadcast the revocation for reliability.
	Revoke(context int) error
}
