package niodev

import (
	"errors"
	"fmt"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/xdev"
)

// This file is the device's failure model: peer-death detection and
// propagation, job abort, and the shutdown path shared by Finish and
// Abort. The propagation itself — draining posted receives, pending
// protocol exchanges, and parked synchronous senders, and waking
// blocked waiters — lives in devcore; this file decides *when* a peer
// is gone and what error shape its loss carries, and tears down the
// transport (connections, listener) around the core's drain.

// ErrDeviceClosed is returned by operations outstanding when the device
// is finished. It wraps xdev.ErrDeviceClosed, so device-agnostic
// callers can test with errors.Is against the xdev sentinel.
var ErrDeviceClosed = fmt.Errorf("niodev: %w", xdev.ErrDeviceClosed)

// peerErr returns the death error of slot, or nil while it is alive.
func (d *Device) peerErr(slot int) error {
	if slot < 0 || slot >= len(d.pids) {
		return nil
	}
	return d.core.PeerErr(uint64(slot))
}

// PeerErr reports the recorded death error of peer p, or nil while the
// connection is believed healthy (xdev.PeerChecker). niodev's death
// records are sticky: once a connection-level failure or a bye frame
// declares a slot gone, it stays gone.
func (d *Device) PeerErr(p xdev.ProcessID) error {
	return d.peerErr(int(p.UUID))
}

// peerLost wraps cause in the death-error shape markPeerDead records,
// satisfying errors.Is for both xdev.ErrPeerLost and the cause.
func (d *Device) peerLost(slot int, cause error) error {
	return &xdev.Error{
		Dev: DeviceName,
		Op:  fmt.Sprintf("peer %d", slot),
		Err: errors.Join(xdev.ErrPeerLost, cause),
	}
}

// markPeerDead declares slot dead with the given cause: every pending
// request addressed to or pinned on the peer fails with an error
// satisfying errors.Is(err, xdev.ErrPeerLost) (and the cause, e.g.
// xdev.ErrCorruptFrame), future operations naming the peer fail fast,
// and blocked Probe callers wake. Idempotent per slot; a no-op once
// the device is closing (Finish/Abort already fail everything).
func (d *Device) markPeerDead(slot int, cause error) {
	d.markPeerGone(slot, cause, false)
}

// markPeerGone is markPeerDead plus the graceful case: a peer that
// announced a clean departure (bye frame) propagates identically —
// nothing pinned on it can complete — but is not counted or traced as
// a failure.
func (d *Device) markPeerGone(slot int, cause error, graceful bool) {
	if slot < 0 || slot >= len(d.pids) || slot == d.cfg.Rank {
		return
	}
	err := d.peerLost(slot, cause)
	if !d.core.FailPeer(uint64(slot), devcore.PeerFail{Err: err, Graceful: graceful, Sticky: true}) {
		return
	}
	// Poison the peer's send queue: queued frames fail their requests
	// (nothing is silently dropped) and later sends fail fast. A
	// gracefully departed peer can no more receive queued frames than a
	// crashed one, so both cases drain.
	d.failQueued(slot, err)
	if !graceful {
		// Close the connection so a writer blocked mid-frame fails
		// instead of wedging and the input handler's read ends; Close is
		// safe against a concurrent Write. Not done for a graceful
		// departure: the peer is still draining byes in its shutdown
		// window, and closing our end would feed it an EOF it miscounts
		// as our death — its own shutdown closes the connection moments
		// later anyway.
		if q := d.queue(slot); q != nil {
			if c := q.link(); c != nil {
				c.Close()
			}
		}
	}
}

// Abort tears the whole job down with the given code: a control frame
// is broadcast so remote ranks abort promptly, then the local device
// fails everything and closes. Implements xdev.Aborter.
func (d *Device) Abort(code int) error {
	ab := &xdev.AbortError{Code: code, From: d.cfg.Rank}
	if d.closed.Load() {
		return nil
	}
	d.broadcast(header{typ: msgAbort, src: uint32(d.cfg.Rank), tag: int32(code)}, -1, goodbyeFlush)
	d.abortLocal(ab, true)
	return nil
}

// handleAbort reacts to a remote rank's abort broadcast. It runs on an
// input-handler goroutine, so the shutdown must not wait for the
// handlers themselves.
func (d *Device) handleAbort(h header) {
	d.abortLocal(&xdev.AbortError{Code: int(h.tag), From: int(h.src)}, false)
}

func (d *Device) abortLocal(ab *xdev.AbortError, wait bool) {
	d.core.SetAborted(ab)
	if d.rec.Enabled() {
		d.rec.Event(mpe.Aborted, int32(ab.From), int32(ab.Code), -1, 0)
	}
	d.shutdown(ab, wait)
}

// shutdown closes the device: the core fails every pending request
// with failErr (before the completion queue closes, so Peek/Waitany
// drain them as errored completions rather than losing them), then the
// transport is torn down — connections and listener.
func (d *Device) shutdown(failErr error, wait bool) {
	if d.closed.Swap(true) {
		return
	}
	d.core.Shutdown(failErr, failErr)
	// Poison every send queue before the connections close: queued
	// frames fail their requests, no flusher starts after this (so the
	// handlerWG wait below joins them all), and closing the conns fails
	// any write in flight and ends the input handlers' reads.
	for slot, q := range d.queues {
		if q == nil {
			continue
		}
		d.failQueued(slot, failErr)
		if c := q.link(); c != nil {
			c.Close()
		}
	}

	if d.listener != nil {
		d.listener.Close()
	}
	d.amu.Lock()
	for _, c := range d.accepted {
		c.Close()
	}
	d.amu.Unlock()
	if wait {
		d.handlerWG.Wait()
	}
}
